"""Start-up: `import eprblab` is lazy, and a CLI launch loads only the
modules its subcommand runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eprblab
from eprblab.cli import main

SRC = str(Path(eprblab.__file__).parents[1])

#: Every name `eprblab` exports, by the module that defines it.
EXPORTED = {
    "domain": (
        "TWO_PI", "CountTable", "JointPmf", "NoCoincidencesError", "SingletKind", "chsh",
        "correlation", "correlation_stderr", "match_probability", "qm_joint_prediction",
        "wrap_angle",
    ),
    "disks": (
        "AssumeFixed", "AssumeRandom", "BothKnown", "DiskPreparation", "KnowledgePolicy",
        "SamplingMode", "Sector", "SplitDisk", "SplitSector", "build_bell_special",
        "build_param_disks", "build_singlet_disk", "joint_pmf_from_splits", "sample_param_setup",
        "sample_separated", "sample_split_many", "split_disk",
    ),
    "optics": (
        "FixedBasisSource", "IsotropicSource", "SourceModel", "StationConfig", "measure_pairs",
    ),
    "scan": (
        "STANDARD_CHSH_ANGLES", "ChshReport", "PathologyReport", "ScanConfig", "ScanResult",
        "ScanStep", "analytic_coincidence_fraction", "analytic_correlation",
        "chsh_report_from_tables", "coincidence_modulation", "default_b_angles",
        "default_chsh_configs", "pathology_probe", "run_chsh", "run_scan", "run_scan_step",
        "singles_asymmetry",
    ),
    "eventio": (
        "EventStream", "GeneratedStreams", "GeneratorConfig", "MatchResult",
        "UnsortedEventsError", "generate_events", "match_coincidences", "read_events",
        "write_events",
    ),
}

#: The eprblab modules one launch of each subcommand loads, besides cli,
#: which runs as __main__.
LOADED = {
    "--version": {"domain"},
    "disk-demo": {"domain", "intervals", "disks"},
    "scan": {"domain", "intervals", "optics", "scan"},
    "chsh": {"domain", "intervals", "optics", "scan"},
    "pathology": {"domain", "intervals", "optics", "scan"},
    "events gen": {"domain", "optics", "eventio"},
    "events match": {"domain", "eventio"},
}

#: One launch: run eprblab.cli as `python -m eprblab.cli` does, then print
#: the exit code, the eprblab modules left in sys.modules and whether
#: numpy.ma is among them (numpy 2.x's np.unique and np.union1d import it).
CHILD = """
import json, runpy, sys
sys.argv = ["eprblab", *json.loads(sys.argv[1])]
try:
    runpy.run_module("eprblab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
names = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("eprblab."))
print(json.dumps([code, names, "numpy.ma" in sys.modules]))
"""


def _launch(argv: list[str], cwd: Path) -> tuple[int, set[str], bool]:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, names, masked = json.loads(done.stdout.splitlines()[-1])
    return code, set(names), masked


@pytest.fixture(scope="module")
def events(tmp_path_factory):
    out = tmp_path_factory.mktemp("events")
    assert main(["events", "gen", "--rate", "1000", "--duration", "0.05", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "command, args",
    [
        ("--version", ()),
        ("disk-demo", ("--figure", "2", "--n", "1000")),
        ("disk-demo", ("--figure", "5", "--policy", "assume-random", "--n", "100")),
        ("scan", ("--steps", "3", "--pairs", "500")),
        ("chsh", ("--pairs", "500")),
        ("pathology", ("--steps", "3", "--pairs", "100")),
        ("events gen", ("--rate", "1000", "--duration", "0.01")),
        ("events match", ("--window", "100")),
    ],
)
def test_a_launch_loads_only_its_subcommand_modules(tmp_path, events, command, args):
    argv = [*command.split(), *args]
    if command == "events match":
        argv += ["--a", str(events / "events_a.csv"), "--b", str(events / "events_b.csv")]
    if command != "--version":
        argv += ["--out", str(tmp_path / "o")]
    code, loaded, masked = _launch(argv, tmp_path)
    assert code == 0
    assert loaded == LOADED[command]
    assert not masked, "numpy.ma was imported"


def test_config_file_runs_load_configparser_and_others_do_not(tmp_path):
    code = (
        "import sys\nfrom eprblab.cli import main\n"
        "rc = main(sys.argv[1:])\nprint(rc, 'configparser' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 100\n")
    seen = []
    for extra in ((), ("--config", str(cfg))):
        argv = ["disk-demo", "--figure", "1", "--n", "100", "--out", str(tmp_path / "o"), *extra]
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        seen.append(done.stdout.split())
    assert seen == [["0", "False"], ["0", "True"]]


def test_import_eprblab_loads_no_module():
    code = (
        "import sys, eprblab\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('eprblab'))\n"
        "print(loaded())\n"
        "eprblab.domain.wrap_angle\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    # A submodule attribute imports that module, and only it, on first access;
    # domain is the one eprblab module that imports no other.
    assert done.stdout.splitlines() == ["['eprblab']", "['eprblab', 'eprblab.domain']"]


def test_every_exported_name_still_resolves():
    import importlib

    names = [name for module in EXPORTED.values() for name in module]
    assert sorted(names) == eprblab.__all__
    listing = dir(eprblab)
    for module, exported in EXPORTED.items():
        mod = importlib.import_module(f"eprblab.{module}")
        for name in exported:
            assert getattr(eprblab, name) is getattr(mod, name)
            assert name in listing
    namespace: dict = {}
    exec("from eprblab import *", namespace)
    assert set(names) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        eprblab.no_such_name  # noqa: B018


def test_submodules_are_listed(monkeypatch):
    import importlib

    submodules = ("cli", "domain", "disks", "eventio", "intervals", "optics", "scan")
    assert set(submodules) <= set(dir(eprblab))
    for name in submodules:
        # With the attribute the import system set gone, eprblab.__getattr__ resolves it.
        monkeypatch.delattr(eprblab, name, raising=False)
        assert getattr(eprblab, name) is importlib.import_module(f"eprblab.{name}")


def _module_level_names(path: Path) -> set[str]:
    """The names a module's top-level assignments and imports bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def test_the_block_size_is_decided_in_domain_alone():
    # Every blocked pass takes its slices from domain._blocks, so no other
    # module binds a row count of its own (or a copy of domain's).
    rows = {path.stem: sorted(name for name in _module_level_names(path) if name.endswith("_ROWS"))
            for path in sorted(Path(eprblab.__file__).parent.glob("*.py"))}
    assert {module: names for module, names in rows.items() if names} == {"domain": ["_BLOCK_ROWS"]}
