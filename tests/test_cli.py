import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_reused_out_drops_outputs_of_the_earlier_run(tmp_path):
    out = tmp_path / "d"
    common = ("--n", "1000", "--seed", "3", "--out", str(out))
    assert run_cli("disk-demo", "--figure", "1", *common) == 0
    assert (out / "disk.txt").exists()
    (out / "notes.txt").write_text("kept: no manifest lists it\n")
    assert run_cli("disk-demo", "--figure", "2", *common) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs == ["disk_a.txt", "disk_b.txt", "summary.txt"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*outputs, "manifest.json", "notes.txt"]
    )
    # An unreadable manifest lists nothing, so nothing is deleted.
    (out / "manifest.json").write_text("not json\n")
    assert run_cli("disk-demo", "--figure", "1", *common) == 0
    assert {"disk_a.txt", "disk_b.txt", "notes.txt"} <= {p.name for p in out.iterdir()}


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


def test_pathology_cli(tmp_path):
    out = tmp_path / "path"
    rc = run_cli("pathology", "--basis", "0", "--alpha", "0.7853981633974483",
                 "--steps", "4", "--pairs", "1000", "--seed", "1", "--out", str(out))
    assert rc == 0
    summary = _read_summary(out / "summary.txt")
    assert float(summary["a_double_rate"]) == 1.0
    assert (out / "pathology.csv").exists()


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
        (("scan", "--steps", "1"), "n_steps"),
        (("chsh", "--pairs", "0"), "pairs_per_setting"),
        (("pathology", "--steps", "1"), "n_steps"),
        (("events", "gen", "--duration=-1"), "duration"),
        (("events", "match", "--a", "none_a.csv", "--b", "none_b.csv", "--window", "10"),
         "none_a.csv"),
    ],
    ids=["disk-demo", "scan", "chsh", "pathology", "events-gen", "events-match"],
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
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_scan_rejects_non_finite_station_inputs(tmp_path, capsys, flag, value):
    out = tmp_path / "s"
    err = usage_error(capsys, "scan", flag, value, "--steps", "3", "--pairs", "1000",
                      "--out", str(out))
    assert err.startswith("eprblab scan: error:") and "finite" in err and flag in err
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
        ("scan", "[station_b]\nthreshold = abc\n", ("[station_b] threshold", "'abc'")),
    ],
    ids=["basis-nan", "chsh-model", "scan-model", "seed-float", "threshold-text"],
)
def test_config_file_non_finite_value_is_runtime_error(tmp_path, capsys, command, text, words):
    # A bad config-file value exits 1 with one line naming [section] key,
    # before any output.
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
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
    assert not (tmp_path / "o").exists()


def test_cli_import_leaves_thread_pool_module_unloaded():
    # The station kernel imports concurrent.futures on first use; importing
    # it with the CLI would cost every command's start-up.
    code = "import sys, eprblab.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(eprblab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_events_match_names_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_ns,setting,channel\n1,0,1\n2,3,1\n")
    rc = run_cli("events", "match", "--a", str(bad), "--b", str(bad), "--window", "10",
                 "--out", str(tmp_path / "m"))
    assert rc == 1
    assert f"{bad}:3:" in capsys.readouterr().err
