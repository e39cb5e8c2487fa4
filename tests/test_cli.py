import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eprblab
from eprblab.cli import build_parser, main


def run_cli(*argv) -> int:
    return main(list(argv))


def usage_error(capsys, *argv) -> str:
    """Run a command that must stop at argument parsing; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    return err


def _read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# --- scan ----------------------------------------------------------------------

def test_scan_preset_writes_outputs(tmp_path):
    out = tmp_path / "scan"
    rc = run_cli("scan", "--preset", "figure8-left", "--steps", "5", "--pairs", "2000",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    csv = (out / "scan.csv").read_text()
    assert csv.startswith("b_angle_rad,")
    assert len(csv.strip().splitlines()) == 6
    summary = _read_summary(out / "summary.txt")
    assert float(summary["singles_ratio"]) == pytest.approx(2 / 3, abs=0.03)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scan"
    assert manifest["config"]["tb"] == 0.75
    assert manifest["config_sha256"] == summary["config_sha256"]
    assert sorted(manifest["outputs"]) == ["scan.csv", "summary.txt"]


def test_scan_is_deterministic_and_replayable(tmp_path):
    argv = ["scan", "--preset", "figure6", "--steps", "4", "--pairs", "1500", "--seed", "9"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    # replay from the manifest's recorded argv into a fresh directory
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay_argv = [a for a in manifest["argv"]]
    out3 = tmp_path / "r3"
    replay_argv += ["--out", str(out3)]
    assert main(replay_argv) == 0
    assert (out3 / "scan.csv").read_bytes() == (out1 / "scan.csv").read_bytes()


def test_scan_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "[station_a]\nthreshold = 0.5\n"
        "[station_b]\nthreshold = 0.75\n"
        "[run]\nseed = 3\npairs_per_step = 800\nsteps = 4\n"
    )
    out = tmp_path / "out"
    rc = run_cli("scan", "--config", str(cfg), "--tb", "0.92", "--out", str(out))
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tb"] == 0.92  # flag beats file
    assert manifest["config"]["ta"] == 0.5
    assert manifest["config"]["pairs_per_step"] == 800
    assert manifest["seed"] == 3


def test_config_file_sha256_lands_in_the_manifest_inputs(tmp_path, capsys):
    # The bytes parsed are the bytes hashed, recorded as events match records
    # its inputs; a run without --config has no inputs block.
    cfg = tmp_path / "lab.cfg"
    cfg.write_bytes(b"[station_b]\nthreshold = 0.75\n[run]\nsteps = 3\npairs_per_step = 100\n")

    def manifest(*argv):
        out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
        assert run_cli("scan", *argv, "--out", str(out)) == 0
        return json.loads((out / "manifest.json").read_text())

    first = manifest("--config", str(cfg))
    sha = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert first["inputs"] == {"config": {"path": str(cfg), "sha256": sha}}
    cfg.write_bytes(cfg.read_bytes().replace(b"0.75", b"0.76"))
    second = manifest("--config", str(cfg))
    assert second["inputs"]["config"]["sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert second["inputs"]["config"]["sha256"] != sha and second["config"]["tb"] == 0.76
    assert "inputs" not in manifest("--steps", "3", "--pairs", "100")
    # CRLF and CR line ends parse as a text-mode read of the file parses them.
    for end in (b"\r\n", b"\r"):
        cfg.write_bytes(b"[station_b]" + end + b"threshold = 0.76" + end + b"[run]" + end
                        + b"steps = 3" + end + b"pairs_per_step = 100" + end)
        assert manifest("--config", str(cfg))["config"] == second["config"]
    # A missing file, or a directory, keeps its one-line message.
    capsys.readouterr()
    for path in (tmp_path / "absent.cfg", tmp_path):
        assert run_cli("scan", "--config", str(path), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err == f"eprblab: error: config file not found: {path}\n"


SCAN = ("scan", "--steps", "3", "--pairs", "100")
PATHOLOGY = ("pathology", "--steps", "3", "--pairs", "100")
CHSH = ("chsh", "--pairs", "100")
GEN = ("events", "gen", "--duration", "0.01")


CONFIG_KEYS = [
    ("station_a", "threshold", SCAN, "--ta", "ta", 0.6, 0.7, 0.5),
    ("station_a", "noise_sigma", SCAN, "--noise-a", "noise_a", 0.01, 0.02, 0.0),
    ("station_a", "efficiency", SCAN, "--efficiency-a", "efficiency_a", 0.9, 0.8, 1.0),
    ("station_a", "angle", PATHOLOGY, "--alpha", "alpha", 0.3, 0.2, math.pi / 4),
    ("station_b", "threshold", CHSH, "--tb", "tb", 0.6, 0.7, 0.5),
    ("station_b", "noise_sigma", CHSH, "--noise-b", "noise_b", 0.01, 0.02, 0.0),
    ("station_b", "efficiency", GEN, "--efficiency-b", "efficiency_b", 0.9, 0.8, 1.0),
    ("source", "model", SCAN, "--source", "source", "fixed-hv", "isotropic", "isotropic"),
    ("source", "basis", PATHOLOGY, "--basis", "basis", 0.3, 0.2, 0.0),
    ("run", "seed", ("disk-demo", "--figure", "1", "--n", "10"), "--seed", "seed", 5, 6, 0),
    ("run", "steps", ("scan", "--pairs", "100"), "--steps", "steps", 4, 3, 33),
    ("run", "pairs_per_step", ("pathology", "--steps", "3"), "--pairs", "pairs_per_step",
     100, 200, 10_000),
    ("run", "pairs_per_setting", ("chsh",), "--pairs", "pairs_per_setting", 100, 200, 100_000),
    ("run", "n", ("disk-demo", "--figure", "1"), "--n", "n", 10, 20, 100_000),
    ("run", "rate", GEN, "--rate", "rate", 1000.0, 2000.0, 10_000.0),
    ("run", "jitter", GEN, "--jitter", "jitter", 2e-9, 3e-9, 10e-9),
    ("run", "duration", ("events", "gen"), "--duration", "duration", 0.01, 0.02, 1.0),
]


@pytest.mark.parametrize(
    "section, key, argv, flag, dest, value, flag_value, default",
    CONFIG_KEYS,
    ids=[f"{section}.{key}" for section, key, *_ in CONFIG_KEYS],
)
def test_every_config_key_resolves_flag_then_file_then_default(
    tmp_path, section, key, argv, flag, dest, value, flag_value, default
):
    # Each [section] key lands in the manifest's config under its dest; an
    # explicit flag beats the file; with neither, the subcommand's default.
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")

    def resolved(*extra):
        out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
        assert run_cli(*argv, *extra, "--out", str(out)) == 0
        return json.loads((out / "manifest.json").read_text())["config"][dest]

    assert resolved("--config", str(cfg)) == value
    assert resolved("--config", str(cfg), f"{flag}={flag_value}") == flag_value
    assert resolved() == default


def test_scan_missing_config_file_is_runtime_error(tmp_path):
    rc = run_cli("scan", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o"))
    assert rc == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        run_cli("scan", "--bogus-flag")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("no-such-command")
    assert err.value.code == 2


def test_help_lists_calibration_knobs(capsys):
    for command in ("scan", "chsh", "pathology"):
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--help")
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--ta", "--tb", "--noise-a", "--noise-b",
                     "--efficiency-a", "--efficiency-b", "--seed"):
            assert flag in text, (command, flag)
        assert "default" in text


def test_alpha_help_states_each_command_default(capsys):
    # pathology runs station A at pi/4 unless told otherwise; scan at 0.
    for command, default in (("scan", "0"), ("pathology", "pi/4")):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert f"--alpha ALPHA station A analyzer angle, rad (default {default})" in text


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for argv in (
        ["disk-demo", "--figure", "1"],
        ["scan"],
        ["chsh"],
        ["pathology"],
        ["events", "gen"],
        ["events", "match", "--a", "x", "--b", "y", "--window", "5"],
    ):
        assert parser.parse_args(argv).func is not None


# --- disk-demo -------------------------------------------------------------------

def test_disk_demo_figure2_small_tv(tmp_path):
    out = tmp_path / "d2"
    rc = run_cli("disk-demo", "--figure", "2", "--theta", "0.3927", "--n", "200000",
                 "--seed", "7", "--out", str(out))
    assert rc == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["tv_distance"]) < 0.006
    assert (out / "disk_a.txt").exists() and (out / "disk_b.txt").exists()


def test_disk_demo_figure3_uniform_cells(tmp_path):
    out = tmp_path / "d3"
    assert run_cli("disk-demo", "--figure", "3", "--theta", "0.3927", "--n", "100000",
                   "--seed", "7", "--out", str(out)) == 0
    summary = _read_summary(out / "summary.txt")
    cells = [float(x) for x in summary["empirical_pmf"].split(",")]
    assert cells == pytest.approx([0.25] * 4, abs=0.01)


def test_disk_demo_figure5_policy_mismatch(tmp_path):
    out = tmp_path / "d5"
    rc = run_cli("disk-demo", "--figure", "5", "--alpha", "0.7854", "--beta", "0",
                 "--policy", "assume-zero", "--n", "50000", "--seed", "7", "--out", str(out))
    assert rc == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["tv_distance"]) > 0.05


@pytest.mark.parametrize(
    "alias, policy",
    [(("--policy", "integrate"), ("--policy", "assume-random")),
     (("--policy", "assume-zero"), ("--policy", "assume-fixed", "--policy-value", "0"))],
    ids=["integrate", "assume-zero"],
)
def test_policy_aliases_sample_as_the_policy_they_name(tmp_path, alias, policy):
    # integrate averages over the remote setting by a fresh uniform guess every
    # trial, as assume-random does; assume-zero assumes the remote setting 0.
    argv = ("disk-demo", "--figure", "5", "--alpha", "0.4", "--n", "2000", "--seed", "8")
    assert run_cli(*argv, *alias, "--out", str(tmp_path / "alias")) == 0
    assert run_cli(*argv, *policy, "--out", str(tmp_path / "named")) == 0
    names = sorted(p.name for p in (tmp_path / "alias").iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in (tmp_path / "named").iterdir()
                           if p.name != "manifest.json")
    for name in names:
        assert (tmp_path / "alias" / name).read_bytes() == (tmp_path / "named" / name).read_bytes()


def test_figure5_both_known_samples_as_figure4(tmp_path):
    argv = ("disk-demo", "--alpha", "0.4", "--beta", "0.1", "--n", "2000", "--seed", "8")
    assert run_cli(*argv, "--figure", "4", "--out", str(tmp_path / "f4")) == 0
    assert run_cli(*argv, "--figure", "5", "--policy", "both-known",
                   "--out", str(tmp_path / "f5")) == 0
    f4, f5 = ({key: value for key, value in _read_summary(tmp_path / d / "summary.txt").items()
               if key != "figure"} for d in ("f4", "f5"))
    assert f5 == f4
    for name in ("disk_a.txt", "disk_b.txt"):
        assert (tmp_path / "f5" / name).read_bytes() == (tmp_path / "f4" / name).read_bytes()


def test_disk_demo_figure4_shared_params(tmp_path):
    out = tmp_path / "d4"
    assert run_cli("disk-demo", "--figure", "4", "--alpha", "0.9", "--beta", "0.2",
                   "--n", "50000", "--seed", "2", "--out", str(out)) == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["tv_distance"]) < 0.01


def test_disk_demo_special_exact_line(tmp_path):
    out = tmp_path / "ds"
    assert run_cli("disk-demo", "--figure", "special", "--alpha", "0.7854",
                   "--n", "20000", "--seed", "2", "--out", str(out)) == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["exact_tv_distance"]) < 1e-12
    exact = [float(x) for x in summary["exact_pmf"].split(",")]
    assert exact[0] == pytest.approx(0.5 * math.sin(0.7854) ** 2, abs=1e-12)


def test_disk_demo_figure1_joint(tmp_path):
    out = tmp_path / "d1"
    assert run_cli("disk-demo", "--figure", "1", "--theta", "0.3927", "--n", "50000",
                   "--seed", "3", "--out", str(out)) == 0
    assert (out / "disk.txt").exists()
    summary = _read_summary(out / "summary.txt")
    assert float(summary["tv_distance"]) < 0.01


def _record(out: Path) -> dict:
    """Every entry of a run record by name, with its bytes."""
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_a_failed_run_leaves_the_earlier_run_whole(tmp_path, capsys, monkeypatch):
    from eprblab import eventio

    out = tmp_path / "x"
    gen = ("events", "gen", "--rate", "1000", "--duration", "0.01", "--out", str(out))
    assert run_cli(*gen) == 0
    earlier = _record(out)
    assert "manifest.json" in earlier and "truth.csv" in earlier

    # A writer that fails partway, after one whole output and part of the next.
    write_csv, calls = eventio._write_csv, []

    def fail_on_second_file(path, header, columns):
        calls.append(path)
        if len(calls) == 1:
            return write_csv(path, header, columns)
        Path(path).write_text(header + "\n")
        raise OSError("No space left on device")

    with monkeypatch.context() as m:
        m.setattr(eventio, "_write_csv", fail_on_second_file)
        capsys.readouterr()
        assert run_cli(*gen, "--seed", "1") == 1
    assert [Path(path).name for path in calls] == ["events_a.csv", "events_b.csv"]
    err = capsys.readouterr().err
    assert err.startswith("eprblab: error:") and "No space left" in err
    assert len(err.strip().splitlines()) == 1
    assert _record(out) == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["x"]

    # The swap itself fails after --out was moved aside: --out is put back.
    rename = Path.rename

    def fail_into_out(self, target):
        if self.name.endswith(".new"):
            raise OSError("rename refused")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", fail_into_out)
    assert run_cli(*gen, "--seed", "1") == 1
    assert "rename refused" in capsys.readouterr().err
    assert _record(out) == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["x"]


def test_a_reused_run_record_is_replaced_whole(tmp_path):
    out = tmp_path / "d"
    common = ("--n", "1000", "--seed", "3", "--out", str(out))
    assert run_cli("disk-demo", "--figure", "1", *common) == 0
    (out / "notes.txt").write_text("added to the record\n")
    assert run_cli("disk-demo", "--figure", "2", *common) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == ["disk_a.txt", "disk_b.txt", "summary.txt"]
    assert sorted(_record(out)) == sorted([*outputs, "manifest.json"])
    # The old manifest is never read: an unreadable one is replaced as well.
    (out / "manifest.json").write_text("not json\n")
    assert run_cli("disk-demo", "--figure", "1", *common) == 0
    assert sorted(_record(out)) == ["disk.txt", "manifest.json", "summary.txt"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["disk.txt", "summary.txt"]
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def test_an_out_that_is_not_a_run_record_is_refused(tmp_path, capsys):
    argv = ("scan", "--steps", "2", "--pairs", "10", "--out")
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "keep.txt").write_text("not a run\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("a file\n")
    for out in (notes, plain):
        before = _record(out) if out.is_dir() else out.read_bytes()
        assert run_cli(*argv, str(out)) == 1
        err = capsys.readouterr().err
        assert "neither an empty directory nor a run record" in err
        assert err.startswith("eprblab: error:") and len(err.strip().splitlines()) == 1
        assert (_record(out) if out.is_dir() else out.read_bytes()) == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(*argv, str(empty)) == 0
    assert sorted(_record(empty)) == ["manifest.json", "scan.csv", "summary.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "notes", "plain.txt"]


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (("chsh", "--tb", "0.75", "--pairs", "1000000", "--noise-b", "0.01"), "scan", "run_chsh"),
        (("disk-demo", "--figure", "2"), "disks", "sample_separated"),
        (("events", "match", "--a", "a.csv", "--b", "b.csv", "--window", "100"), "eventio",
         "read_events"),
    ],
    ids=["chsh", "disk-demo", "events-match"],
)
def test_a_refused_out_stops_the_run_before_it_computes(tmp_path, capsys, monkeypatch,
                                                         argv, module, name):
    def computed(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(f"eprblab.{module}.{name}", computed)
    monkeypatch.chdir(tmp_path)
    Path("plain.txt").write_text("a file\n")
    assert run_cli(*argv, "--out", "plain.txt") == 1
    assert capsys.readouterr().err == (
        "eprblab: error: --out plain.txt is neither an empty directory nor a run record\n")
    assert Path("plain.txt").read_text() == "a file\n"


def test_out_given_through_dot_dot_or_a_symlink_replaces_the_directory_it_names(tmp_path):
    argv = ("disk-demo", "--n", "1000", "--out")
    (tmp_path / "sub").mkdir()
    record = tmp_path / "o"
    assert run_cli(*argv, str(record), "--figure", "1") == 0
    assert run_cli(*argv, str(tmp_path / "sub" / ".." / "o"), "--figure", "2") == 0
    assert sorted(_record(record)) == ["disk_a.txt", "disk_b.txt", "manifest.json", "summary.txt"]

    link = tmp_path / "link"
    link.symlink_to(record)
    assert run_cli(*argv, str(link), "--figure", "1") == 0
    assert link.is_symlink() and link.resolve() == record
    assert sorted(_record(record)) == ["disk.txt", "manifest.json", "summary.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "o", "sub"]


# --- chsh / pathology ----------------------------------------------------------------

def test_chsh_cli(tmp_path):
    out = tmp_path / "chsh"
    rc = run_cli("chsh", "--ta", "0.5", "--tb", "0.75", "--pairs", "20000",
                 "--seed", "3", "--out", str(out))
    assert rc == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["abs_s"]) == pytest.approx(3.0, abs=0.06)
    lines = (out / "chsh.csv").read_text().strip().splitlines()
    assert lines[0].startswith("setting,") and len(lines) == 5


@pytest.mark.parametrize(
    "argv, names",
    [
        (("--ta", "0"), "ab, ab_prime, a_prime_b, a_prime_b_prime"),
        # 0.92 windows 0.63 rad apart never meet (test_dead_zone_has_no_coincidences_anywhere).
        (("--ta", "0.92", "--tb", "0.92", "--angle-a", "0", "--angle-a2", "0.3",
          "--angle-b", "0", "--angle-b2", "0.6283185307179586"), "ab_prime"),
    ],
    ids=["every-trial-a-double", "one-dead-setting"],
)
def test_chsh_without_coincidences_names_the_empty_settings(tmp_path, capsys, argv, names):
    out = tmp_path / "chsh"
    assert run_cli("chsh", *argv, "--pairs", "2000", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"eprblab: error: no coincidences to correlate at setting {names}\n"
    assert not out.exists()


def test_pathology_cli(tmp_path):
    out = tmp_path / "path"
    rc = run_cli("pathology", "--basis", "0", "--alpha", "0.7853981633974483",
                 "--steps", "4", "--pairs", "1000", "--seed", "1", "--out", str(out))
    assert rc == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["a_double_rate"]) == 1.0
    assert (out / "pathology.csv").exists()


def test_pathology_at_a_basis_just_below_zero_writes_what_basis_zero_writes(tmp_path):
    # Station A at pi/4 bisects the basis: a pair angle left at exactly 2*pi
    # instead of 0 misses the exact tie, and fewer trials read as doubles.
    outs = [tmp_path / "below", tmp_path / "zero"]
    for basis, out in zip(("--basis=-1e-20", "--basis=0"), outs):
        assert run_cli("pathology", basis, "--steps", "3", "--pairs", "1000", "--out", str(out)) == 0
    below, zero = (_read_summary(out / "summary.txt") for out in outs)
    assert below["a_double_rate"] == zero["a_double_rate"] == "1.0"
    assert (outs[0] / "pathology.csv").read_bytes() == (outs[1] / "pathology.csv").read_bytes()


# --- events ---------------------------------------------------------------------------

def test_events_gen_and_match_pipeline(tmp_path):
    gen_out = tmp_path / "gen"
    rc = run_cli("events", "gen", "--rate", "2000", "--jitter", "10e-9",
                 "--duration", "1.0", "--tb", "0.75", "--seed", "5", "--out", str(gen_out))
    assert rc == 0
    for name in ("events_a.csv", "events_b.csv", "truth.csv", "summary.txt", "manifest.json"):
        assert (gen_out / name).exists()

    match_out = tmp_path / "match"
    rc = run_cli("events", "match", "--a", str(gen_out / "events_a.csv"),
                 "--b", str(gen_out / "events_b.csv"), "--window", "100",
                 "--out", str(match_out))
    assert rc == 0
    summary = _read_summary(match_out / "summary.txt")
    truth_rows = (gen_out / "truth.csv").read_text().strip().splitlines()
    assert int(summary["n_matched"]) == len(truth_rows) - 1
    assert float(summary["abs_s"]) == pytest.approx(3.0, abs=0.25)


def test_events_gen_deterministic(tmp_path):
    argv = ["events", "gen", "--rate", "1000", "--duration", "0.5", "--seed", "11"]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    for name in ("events_a.csv", "events_b.csv", "truth.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_events_match_missing_file_is_runtime_error(tmp_path):
    rc = run_cli("events", "match", "--a", str(tmp_path / "none_a.csv"),
                 "--b", str(tmp_path / "none_b.csv"), "--window", "10",
                 "--out", str(tmp_path / "m"))
    assert rc == 1


def test_events_manifests_carry_counters_and_input_digests(tmp_path):
    gen_out = tmp_path / "gen"
    assert run_cli("events", "gen", "--rate", "2000", "--duration", "0.5", "--tb", "0.75",
                   "--seed", "6", "--out", str(gen_out)) == 0
    summary = _read_summary(gen_out / "summary.txt")
    manifest = json.loads((gen_out / "manifest.json").read_text())
    assert manifest["counters"] == {
        key: int(summary[key]) for key in ("n_pairs", "records_a", "records_b", "truth_pairs")
    }
    assert manifest["config_sha256"] == summary["config_sha256"]
    assert "counters" not in manifest["config"]

    a, b = gen_out / "events_a.csv", gen_out / "events_b.csv"
    match_out = tmp_path / "match"
    assert run_cli("events", "match", "--a", str(a), "--b", str(b), "--window", "100",
                   "--out", str(match_out)) == 0
    summary = _read_summary(match_out / "summary.txt")
    manifest = json.loads((match_out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        side: {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for side, p in (("a", a), ("b", b))
    }
    n_matched = int(summary["n_matched"])
    records_a = len(a.read_text().splitlines()) - 1
    records_b = len(b.read_text().splitlines()) - 1
    assert manifest["counters"] == {
        "records_a": records_a,
        "records_b": records_b,
        "n_matched": n_matched,
        "unmatched_a": records_a - n_matched,
        "unmatched_b": records_b - n_matched,
    }
    assert manifest["config"] == {"a": str(a), "b": str(b), "window_ns": 100}
    assert manifest["config_sha256"] == summary["config_sha256"]


def test_every_manifest_records_its_environment(tmp_path):
    import numpy as np

    gen = tmp_path / "events gen"
    runs = {
        "disk-demo": ("--figure", "1", "--n", "10"),
        "scan": ("--steps", "2", "--pairs", "100"),
        "chsh": ("--pairs", "100"),
        "pathology": ("--steps", "2", "--pairs", "100"),
        "events gen": ("--rate", "1000", "--duration", "0.01"),
        "events match": ("--a", str(gen / "events_a.csv"), "--b", str(gen / "events_b.csv"),
                         "--window", "100"),
    }
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    environment = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                   "platform": sys.platform, "nproc": nproc}
    for command, args in runs.items():
        out = tmp_path / command
        assert run_cli(*command.split(), *args, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == environment, command
        assert "environment" not in manifest["config"]


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--jitter", "nan", "jitter_sigma"),
        ("--jitter", "inf", "jitter_sigma"),
        ("--rate", "nan", "mean_rate"),
        ("--rate", "inf", "mean_rate"),
        ("--duration", "nan", "duration"),
        ("--duration", "inf", "duration"),
        ("--angles-a", "nan,0", "settings"),
        ("--angles-a", "-0.1,nan", "settings"),
    ],
)
def test_events_gen_rejects_non_finite_inputs(tmp_path, capsys, flag, value, name):
    out = tmp_path / "g"
    err = usage_error(capsys, "events", "gen", flag, value, "--out", str(out))
    assert err.startswith("eprblab events gen: error:")
    assert f"argument {flag}:" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, word",
    [
        (("disk-demo", "--figure", "1", "--n", "0"), "n must be positive"),
        (("disk-demo", "--figure", "special", "--kind", "correlated"), "anticorrelated"),
        (("scan", "--steps", "1"), "n_steps"),
        (("chsh", "--pairs", "0"), "pairs_per_setting"),
        (("pathology", "--steps", "1"), "n_steps"),
        (("events", "gen", "--duration=-1"), "duration"),
        (("events", "gen", "--rate", "1e9", "--duration", "1e9"),
         "rate * duration = 1e+18 expected pairs > 16777216"),
        # Event times are int64 ns: a time past 2**63 ns is refused, not wrapped.
        (("events", "gen", "--jitter", "1e308"), "event times could pass 2**63 ns"),
        (("events", "gen", "--rate", "1e-9", "--duration", "1e11", "--seed", "1"),
         "event times could pass 2**63 ns: duration + 40 * jitter_sigma = 1e+11 s"),
        (("events", "gen", "--jitter", "1e10", "--duration", "0.01"),
         "event times could pass 2**63 ns"),
        (("events", "match", "--a", "none_a.csv", "--b", "none_b.csv", "--window", "10"),
         "none_a.csv"),
        # disk-demo refuses a flag that its figure does not read.
        (("disk-demo", "--figure", "4", "--theta", "0.3"), "--figure 4 does not read --theta"),
        (("disk-demo", "--figure", "5", "--theta", "0.3"), "--figure 5 does not read --theta"),
        (("disk-demo", "--figure", "special", "--theta", "0.3"), "does not read --theta"),
        (("disk-demo", "--figure", "1", "--alpha", "0.3"), "--figure 1 does not read --alpha"),
        (("disk-demo", "--figure", "2", "--beta", "0.3"), "--figure 2 does not read --beta"),
        (("disk-demo", "--figure", "3", "--alpha", "0"), "--figure 3 does not read --alpha"),
        (("disk-demo", "--figure", "special", "--beta", "0"), "does not read --beta"),
        (("disk-demo", "--figure", "1", "--policy-value", "0.3"), "does not read --policy-value"),
        (("disk-demo", "--figure", "4", "--policy", "both-known"), "does not read --policy"),
        (("disk-demo", "--figure", "special", "--policy-a", "both-known"),
         "does not read --policy-a"),
        (("disk-demo", "--figure", "2", "--policy-b", "assume-random"),
         "does not read --policy-b"),
        (("disk-demo", "--figure", "5", "--policy", "assume-random", "--policy-value", "0.3"),
         "--figure 5 does not read --policy-value"),
        (("disk-demo", "--figure", "5", "--policy-value", "0.3"), "does not read --policy-value"),
        (("disk-demo", "--figure", "5", "--policy", "assume-random", "--policy-a", "both-known",
          "--policy-b", "both-known"), "--figure 5 does not read --policy"),
        (("disk-demo", "--figure", "5", "--policy", "assume-fixed"),
         "--policy assume-fixed needs --policy-value"),
        (("disk-demo", "--figure", "5", "--policy-a", "assume-fixed", "--policy-b", "both-known"),
         "--policy-a assume-fixed needs --policy-value"),
        (("disk-demo", "--figure", "5", "--policy-a", "both-known", "--policy-b", "assume-fixed"),
         "--policy-b assume-fixed needs --policy-value"),
    ],
    ids=["disk-demo", "disk-demo-special-correlated", "scan", "chsh", "pathology", "events-gen",
         "events-gen-too-large", "events-gen-jitter-past-int64", "events-gen-time-past-int64",
         "events-gen-jitter-before-draws", "events-match", "figure4-theta", "figure5-theta",
         "special-theta", "figure1-alpha",
         "figure2-beta", "figure3-alpha", "special-beta", "figure1-policy-value",
         "figure4-policy", "special-policy-a", "figure2-policy-b", "figure5-random-policy-value",
         "figure5-default-policy-value", "figure5-policy-under-both-sides",
         "figure5-assume-fixed-without-value", "figure5-a-assume-fixed-without-value",
         "figure5-b-assume-fixed-without-value"],
)
def test_runtime_failure_leaves_no_out_dir(tmp_path, capsys, monkeypatch, argv, word):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("eprblab: error:") and word in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise-a", "--noise-b", "--alpha"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
def test_scan_rejects_non_finite_station_inputs(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    err = usage_error(capsys, "scan", flag, value, "--steps", "3", "--pairs", "1000",
                      "--out", str(out))
    assert err.startswith("eprblab scan: error:")
    assert f"argument {flag}: must be a finite number, got {value!r}" in err
    assert not out.exists()


def test_pathology_rejects_non_finite_basis(tmp_path, capsys):
    out = tmp_path / "p"
    err = usage_error(capsys, "pathology", "--basis", "nan", "--steps", "3", "--pairs", "100",
                      "--out", str(out))
    assert err.startswith("eprblab pathology: error:") and "--basis" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--basis", ("scan", "--basis", "nan", "--steps", "3", "--pairs", "100")),
        ("--basis", ("chsh", "--basis", "inf", "--pairs", "100")),
        ("--policy-value", ("disk-demo", "--figure", "2", "--policy-value", "nan", "--n", "100")),
    ],
)
def test_unused_non_finite_flags_are_usage_errors(tmp_path, capsys, flag, argv):
    # These values are never used by the run, so only the parser can stop
    # them before they reach the manifest as bare NaN/Infinity.
    out = tmp_path / "o"
    err = usage_error(capsys, *argv, "--out", str(out))
    assert f"eprblab {argv[0]}: error: argument {flag}:" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--theta", "--alpha", "--beta"])
def test_every_disk_demo_float_flag_is_checked(tmp_path, capsys, flag):
    err = usage_error(capsys, "disk-demo", "--figure", "1", flag, "-inf",
                      "--out", str(tmp_path / "o"))
    assert f"argument {flag}:" in err


def test_negative_exponent_value_reads_as_its_flag_value(tmp_path):
    argv = ("scan", "--steps", "3", "--pairs", "100", "--seed", "4")
    assert run_cli(*argv, "--alpha", "-1e-3", "--out", str(tmp_path / "spaced")) == 0
    assert run_cli(*argv, "--alpha=-1e-3", "--out", str(tmp_path / "joined")) == 0
    spaced = (tmp_path / "spaced" / "scan.csv").read_bytes()
    assert spaced == (tmp_path / "joined" / "scan.csv").read_bytes()


def test_negative_first_angle_of_a_pair_reads_as_its_flag_value(tmp_path):
    argv = ("events", "gen", "--duration", "0.01", "--seed", "4")
    assert run_cli(*argv, "--angles-a", "-0.1,0.2", "--out", str(tmp_path / "spaced")) == 0
    assert run_cli(*argv, "--angles-a=-0.1,0.2", "--out", str(tmp_path / "joined")) == 0
    for name in ("events_a.csv", "events_b.csv", "truth.csv", "summary.txt"):
        spaced = (tmp_path / "spaced" / name).read_bytes()
        assert spaced == (tmp_path / "joined" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [("disk-demo", "--figure", "1"), ("scan",), ("chsh",), ("pathology",), ("events", "gen")],
    ids=["disk-demo", "scan", "chsh", "pathology", "events-gen"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    err = usage_error(capsys, *argv, "--seed", "-1", "--out", str(out))
    assert "argument --seed: must be a nonnegative integer, got '-1'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "pathology"])
def test_steps_past_two_to_the_16_are_usage_errors(tmp_path, capsys, command):
    # Parsed only: the ceiling passes the parser, and one past it stops there.
    assert build_parser().parse_args([command, "--steps", str(2**16)]).steps == 2**16
    out = tmp_path / "o"
    err = usage_error(capsys, command, "--steps", str(2**16 + 1), "--out", str(out))
    assert f"argument --steps: must be at most 2**16 = 65536, got '{2**16 + 1}'" in err
    assert not out.exists()
    for value in ("-1", "x"):
        assert "argument --steps:" in usage_error(capsys, command, "--steps", value)


@pytest.mark.parametrize(
    "argv, flag, dest",
    [
        (("scan", "--steps", "3"), "--pairs", "pairs_per_step"),
        (("pathology", "--steps", "3"), "--pairs", "pairs_per_step"),
        (("chsh",), "--pairs", "pairs_per_setting"),
        (("disk-demo", "--figure", "1"), "--n", "n"),
    ],
    ids=["scan", "pathology", "chsh", "disk-demo"],
)
def test_sizes_past_two_to_the_30_are_usage_errors(tmp_path, capsys, argv, flag, dest):
    # Parsed only: the ceiling passes the parser, and one past it stops there.
    assert getattr(build_parser().parse_args([*argv, flag, str(2**30)]), dest) == 2**30
    out = tmp_path / "o"
    for value in (str(2**30 + 1), "1" + "0" * 21):
        err = usage_error(capsys, *argv, flag, value, "--out", str(out))
        assert f"argument {flag}: must be at most 2**30 = 1073741824, got '{value}'" in err
    assert not out.exists()
    assert f"argument {flag}:" in usage_error(capsys, *argv, flag, "-1")


def test_an_error_with_no_text_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    # A MemoryError() carries no message; the one error line names it.
    def out_of_memory(args, argv):
        raise MemoryError()

    monkeypatch.setattr(eprblab.cli, "_cmd_chsh", out_of_memory)
    assert run_cli("chsh", "--pairs", "100", "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == "eprblab: error: MemoryError\n"


@pytest.mark.parametrize(
    "argv",
    [("disk-demo", "--figure", "1", "--n", "10"), ("chsh", "--pairs", "100")],
    ids=["disk-demo", "chsh"],
)
def test_seed_is_a_u64(tmp_path, capsys, argv):
    out = tmp_path / "o"
    for value in (str(2**64), str(2**128 + 1)):
        err = usage_error(capsys, *argv, "--seed", value, "--out", str(out))
        assert f"argument --seed: must be below 2**64, got '{value}'" in err
        assert not out.exists()
    assert run_cli(*argv, "--seed", str(2**64 - 1), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1


def test_disk_demo_keeps_a_negative_zero_angle(tmp_path):
    out = tmp_path / "d"
    assert run_cli("disk-demo", "--figure", "4", "--alpha=-0.0", "--beta=-0.0", "--n", "10",
                   "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert [math.copysign(1.0, config[k]) for k in ("alpha", "beta")] == [-1.0, -1.0]
    assert config["theta"] == math.pi / 8


def test_non_numeric_float_flag_and_bad_angle_pair_are_usage_errors(tmp_path, capsys):
    assert "not a number: 'abc'" in usage_error(capsys, "scan", "--ta", "abc")
    err = usage_error(capsys, "events", "gen", "--angles-b", "1,2,3")
    assert "argument --angles-b: wants two comma-separated angles" in err


@pytest.mark.parametrize(
    "command, text, words",
    [
        ("scan", "[source]\nbasis = nan\n", ("[source] basis", "finite")),
        ("chsh", "[source]\nmodel = fixd-hv\n", ("[source] model", "isotropic, fixed-hv")),
        ("scan", "[source]\nmodel = fixd-hv\n", ("[source] model", "'fixd-hv'")),
        ("chsh", "[run]\nseed = 1.5\n", ("[run] seed", "'1.5'")),
        ("chsh", "[run]\nseed = -1\n", ("[run] seed", "nonnegative", "'-1'")),
        ("scan", "[station_b]\nthreshold = abc\n", ("[station_b] threshold", "'abc'")),
        ("scan", "[station_b]\ntreshold = 0.75\n", ("[station_b] treshold: unknown key",)),
        ("chsh", "[stationb]\nthreshold = 0.75\n", ("[stationb] threshold: unknown key",)),
        ("chsh", "[DEFAULT]\nthreshold = 0.75\n", ("[DEFAULT] threshold: unknown key",)),
        ("chsh", "[run]\nsteps = many\n", ("[run] steps", "'many'")),
        ("pathology", "[run]\nsteps = 65537\n", ("[run] steps", "at most 2**16", "'65537'")),
        ("chsh", "[run]\nseed = 18446744073709551616\n", ("[run] seed", "below 2**64")),
        # A file configparser cannot parse names its first bad line.
        ("chsh", "[run]\nseed = 3\nbogus line\n", ("run.ini line 3", "not key = value")),
        ("scan", "seed = 3\n", ("run.ini line 1", "no [section] header")),
        ("chsh", "[run]\nseed = 3\nseed = 4\n", ("run.ini line 3", "repeats a key")),
        ("chsh", "[run]\nseed = 3\n[run]\n", ("run.ini line 3", "repeats a [section]")),
        # Values are read as written: a % is not interpolation syntax.
        ("chsh", "[run]\nseed = 5%\n", ("[run] seed", "'5%'")),
        # A file that is not UTF-8 names its first bad byte and that byte's line.
        ("chsh", b"[run]\r\nseed = 3\xff\r\n", ("run.ini: not UTF-8", "byte 0xff at line 2")),
        # A size past its ceiling, read by the command (chsh, scan) or not (n).
        ("chsh", "[run]\npairs_per_setting = 1073741825\n",
         ("[run] pairs_per_setting", "at most 2**30 = 1073741824", "'1073741825'")),
        ("scan", "[run]\npairs_per_step = 1073741825\n", ("[run] pairs_per_step", "2**30")),
        ("chsh", "[run]\nn = 1073741825\n", ("[run] n", "at most 2**30", "'1073741825'")),
    ],
    ids=["basis-nan", "chsh-model", "scan-model", "seed-float", "seed-negative",
         "threshold-text", "key-typo", "section-typo", "default-section", "unread-key-bad-value",
         "steps-past-ceiling", "seed-past-u64", "bare-line", "no-section", "duplicate-key",
         "duplicate-section", "percent-sign", "not-utf8", "pairs-per-setting-past-ceiling",
         "pairs-per-step-past-ceiling", "n-past-ceiling"],
)
def test_config_file_non_finite_value_is_runtime_error(tmp_path, capsys, command, text, words):
    # A bad config-file value exits 1 with one line naming [section] key,
    # before any output.
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "s"
    assert run_cli(command, "--config", str(cfg), "--pairs", "100", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("eprblab: error: config ") and len(err.strip().splitlines()) == 1
    assert all(word in err for word in words), err
    assert not out.exists()


def test_manifest_refuses_non_finite_json(tmp_path):
    from eprblab.cli import _fingerprint, _write_run

    with pytest.raises(ValueError):
        _fingerprint({"basis": math.nan})
    args = argparse.Namespace(out=str(tmp_path / "o"))
    with pytest.raises(ValueError):
        _write_run(args, "scan", [], 0, {"basis": math.inf}, {"summary.txt": "x\n"})
    with pytest.raises(ValueError):
        _write_run(args, "scan", [], 0, {}, {"summary.txt": "x\n"}, counters={"n": math.nan})
    assert not any(tmp_path.iterdir())  # no --out and no staging directory beside it


def test_cli_import_leaves_thread_pool_module_unloaded(tmp_path):
    # The station kernel runs its blocks on the calling thread: neither the
    # CLI import nor a noisy scan or an events gen starts a thread or loads
    # concurrent.futures.
    code = (
        "import sys, threading, eprblab.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "assert eprblab.cli.main(['scan', '--noise-b', '0.05', '--steps', '2', '--pairs',"
        " '1000', '--out', 'scan']) == 0\n"
        "assert eprblab.cli.main(['events', 'gen', '--rate', '1000', '--duration', '0.05',"
        " '--out', 'gen']) == 0\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(eprblab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1", "False"]


def test_events_match_names_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_ns,setting,channel\n1,0,1\n2,3,1\n")
    rc = run_cli("events", "match", "--a", str(bad), "--b", str(bad), "--window", "10",
                 "--out", str(tmp_path / "m"))
    assert rc == 1
    assert f"{bad}:3:" in capsys.readouterr().err


# --- angle magnitudes --------------------------------------------------------------

TOO_BIG = "8796093022209"  # 2**43 + 1


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("scan", "--steps", "3", "--pairs", "1000"), "--alpha", "1e308"),
        (("scan", "--steps", "3"), "--basis", "-" + TOO_BIG),
        (("pathology", "--steps", "3"), "--alpha", TOO_BIG),
        (("pathology", "--steps", "3"), "--basis", "1e13"),
        (("chsh",), "--angle-a", TOO_BIG),
        (("chsh",), "--angle-a2", "-1e308"),
        (("chsh",), "--angle-b", "1e20"),
        (("chsh",), "--angle-b2", "-" + TOO_BIG),
        (("chsh",), "--basis", "1e308"),
        (("events", "gen"), "--angles-a", "0,1e308"),
        (("events", "gen"), "--angles-b", "0,-1e13"),
        (("events", "gen"), "--basis", TOO_BIG),
        (("disk-demo", "--figure", "1"), "--theta", TOO_BIG),
        (("disk-demo", "--figure", "4"), "--beta", "-1e308"),
    ],
)
def test_angle_flags_past_two_to_the_43_are_usage_errors(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "o"
    err = usage_error(capsys, *argv, f"{flag}={value}", "--out", str(out))
    assert f"argument {flag}: angle {float(value.split(',')[-1])!r} exceeds 2**43 rad" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("scan", "[station_a]\nangle = 1e308\n"),
        ("pathology", "[station_a]\nangle = -8796093022209\n"),
        ("pathology", "[source]\nbasis = 1e13\n"),
        ("scan", "[source]\nmodel = fixed-hv\nbasis = -1e308\n"),
        ("chsh", "[source]\nbasis = 1e20\n"),
        ("chsh", "[station_a]\nangle = 1e308\n"),  # chsh has no --alpha, yet the entry is cast
    ],
)
def test_config_angles_past_two_to_the_43_are_runtime_errors(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run_cli(command, "--config", str(cfg), "--pairs", "100", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("eprblab: error: config [") and len(err.strip().splitlines()) == 1
    assert "angle " in err and " exceeds 2**43 rad in magnitude" in err
    assert not out.exists()


#: disk-demo argvs whose angles differ by more than the largest double: each
#: must stop at its first flag past 2**43, before a subtraction overflows.
OVERFLOWING_DISK_ARGVS = [
    ["disk-demo", "--figure", "4", "--alpha", "1e308", "--beta", "-1e308"],
    ["disk-demo", "--figure", "5", "--policy-a", "assume-fixed", "--policy-b", "assume-random",
     "--policy-value", "1e308", "--alpha", "-1e308", "--n", "10"],
]


@pytest.mark.parametrize("argv, flag", zip(OVERFLOWING_DISK_ARGVS, ["--alpha", "--policy-value"]))
def test_disk_demo_angles_share_the_angle_bound(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = usage_error(capsys, *argv, "--out", str(out))
    assert f"argument {flag}: angle 1e+308 exceeds 2**43 rad in magnitude" in err
    assert not out.exists()


def test_angles_up_to_two_to_the_43_still_run(tmp_path):
    for value in ("-1e12", "8796093022208"):
        out = tmp_path / value
        assert run_cli("scan", f"--alpha={value}", "--steps", "3", "--pairs", "500",
                       "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] == float(value)


# --- events match reads each input once ----------------------------------------------

def test_events_match_digests_the_bytes_it_matched(tmp_path, monkeypatch):
    from eprblab import eventio

    gen_out = tmp_path / "gen"
    assert run_cli("events", "gen", "--rate", "2000", "--duration", "0.2", "--seed", "4",
                   "--out", str(gen_out)) == 0
    a, b = gen_out / "events_a.csv", gen_out / "events_b.csv"
    matched = a.read_bytes()
    parse = eventio.read_events
    parsed = []

    def parse_then_replace(path, *rest):
        # A writer replacing the file just after the parse: the digest must
        # still be of the bytes the match used, not of the file's new content.
        stream = parse(path, *rest)
        parsed.append(Path(path))
        if Path(path) == a:
            a.write_text(eventio.EVENTS_CSV_HEADER + "\n")
        return stream

    monkeypatch.setattr(eventio, "read_events", parse_then_replace)
    out = tmp_path / "m"
    assert run_cli("events", "match", "--a", str(a), "--b", str(b), "--window", "100",
                   "--out", str(out)) == 0
    assert parsed == [a, b]  # both parses go through the public eventio.read_events
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["a"]["sha256"] == hashlib.sha256(matched).hexdigest()
    assert manifest["inputs"]["b"]["sha256"] == hashlib.sha256(b.read_bytes()).hexdigest()
    assert manifest["counters"]["records_a"] == len(matched.splitlines()) - 1 > 0


# --- argv fuzz ----------------------------------------------------------------------

#: Flag values: mostly valid, sometimes not a finite number or not a number.
_bad = st.sampled_from(["nan", "inf", "-inf", "1e308", "abc", ""])
_floats = st.one_of(st.floats(-10.0, 10.0).map(str), st.floats(-10.0, 10.0).map(str), _bad)
_unit = st.one_of(st.floats(0.3, 1.0).map(str), st.floats(0.3, 1.0).map(str), _bad)
_policy = st.sampled_from(["both-known", "assume-zero", "assume-fixed", "assume-random",
                           "integrate", "guess"])
_run = {
    "--seed": st.one_of(st.integers(-1, 2**64), st.just("1.5")).map(str),
    "--config": st.sampled_from(["good.ini", "bad.ini", "missing.ini"]),
}
_stations = {
    **_run, **{f"--{k}": _unit for k in ("ta", "tb", "efficiency-a", "efficiency-b")},
    "--noise-a": st.floats(-0.01, 0.2).map(str), "--noise-b": st.floats(-0.01, 0.2).map(str),
    "--source": st.sampled_from(["isotropic", "fixed-hv", "fixd-hv"]), "--basis": _floats,
}
_steps, _pairs = st.integers(-1, 4).map(str), st.integers(-1, 500).map(str)
#: Each subcommand's argv head, the flags it always gets (which bound its
#: size, at most 500 pairs or trials, 4 steps and 1e3 expected events), and
#: the flags it may get, each with a strategy for its value.
_COMMANDS = {
    "disk-demo": (("disk-demo",), {
        "--figure": st.sampled_from(["1", "2", "3", "4", "5", "special", "6"]),
        "--n": _pairs,
    }, {
        "--theta": _floats, "--alpha": _floats, "--beta": _floats,
        "--kind": st.sampled_from(["anticorrelated", "correlated", "other"]),
        "--policy": _policy, "--policy-a": _policy, "--policy-b": _policy,
        "--policy-value": _floats, **_run,
    }),
    "scan": (("scan",), {"--steps": _steps, "--pairs": _pairs}, {
        **_stations, "--alpha": _floats,
        "--preset": st.sampled_from(["figure6", "figure7", "figure8-right", "figure9"]),
    }),
    "chsh": (("chsh",), {"--pairs": _pairs}, {
        **_stations, **{f"--angle-{k}": _floats for k in ("a", "a2", "b", "b2")},
    }),
    "pathology": (("pathology",), {"--steps": _steps, "--pairs": _pairs}, {
        **{k: v for k, v in _stations.items() if k != "--source"}, "--alpha": _floats,
    }),
    "events gen": (("events", "gen"), {
        "--rate": st.floats(-10.0, 1e4).map(str), "--duration": st.floats(-0.01, 0.1).map(str),
    }, {
        **_stations, "--jitter": _floats, "--angles-a": st.tuples(_floats, _floats).map(",".join),
        "--angles-b": st.sampled_from(["0,1", "1,2,3", "nan,0", "0"]),
    }),
    "events match": (("events", "match"), {
        "--a": st.sampled_from(["a.csv", "a.csv", "unsorted.csv", "garbage.csv", "missing.csv"]),
        "--b": st.sampled_from(["b.csv", "b.csv", "a.csv", "empty.csv"]),
        "--window": st.one_of(st.integers(-5, 100).map(str), st.just("1.5")),
    }, {}),
}
_JUNK = st.sampled_from(["--bogus", "-x", "", "nan", "--", "-1e-3", "--pairs", "=", "ü",
                         "--config", "--help", "--version", "events"])


@st.composite
def _argv(draw):
    head, always, optional = _COMMANDS[draw(st.sampled_from(sorted(_COMMANDS)))]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), max_size=5, unique=True)
                  if optional else st.just([]))
    argv = [*head]
    for flag, values in [*always.items(), *((f, optional[f]) for f in chosen)]:
        argv += [flag, draw(values)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(_JUNK))
    return argv


#: The input files the fuzz names, by name: events files and config files.
_FUZZ_INPUTS = {
    **{name: "t_ns,setting,channel\n" + body for name, body in (
        ("a.csv", "0,0,1\n10,1,-1\n30,0,-1\n"), ("b.csv", "2,0,-1\n31,1,1\n"),
        ("unsorted.csv", "10,0,1\n5,0,1\n"), ("garbage.csv", "x,y\n"), ("empty.csv", ""))},
    "good.ini": "[run]\nseed = 3\n[station_b]\nthreshold = 0.75\n",
    "bad.ini": "[run]\nbogus line\n",
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FUZZ_INPUTS.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
@example(argv=OVERFLOWING_DISK_ARGVS[0])
@example(argv=OVERFLOWING_DISK_ARGVS[1])
def test_argv_fuzz_exits_cleanly_and_writes_whole_runs(fuzz_inputs, argv):
    # Any argv exits 0, 1 or 2 with at most one stderr line and no traceback
    # or warning, and --out is either absent or a whole run record.
    argv = [str(fuzz_inputs / a) if a in _FUZZ_INPUTS else a for a in argv]
    with tempfile.TemporaryDirectory(dir=fuzz_inputs) as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue() and not caught, (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
        if out.exists():
            listed = json.loads((out / "manifest.json").read_text())["outputs"]
            written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert sorted(listed) == written, argv
        assert [p.name for p in Path(tmp).iterdir()] in ([], ["out"]), argv
