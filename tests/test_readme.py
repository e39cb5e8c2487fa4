"""The README's Library snippet runs, and gives the values its comments state;
its config file and every command of its CLI block run."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from eprblab.cli import main

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_snippet_runs_as_its_comments_state():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    values = {}  # source of each expression statement -> its value
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)

    def value_of(fragment: str):
        (value,) = [v for source, v in values.items() if fragment in source]
        return value

    assert value_of("analytic_correlation(") == pytest.approx(-0.75, abs=1e-12)
    assert value_of("analytic_coincidence_fraction(") == pytest.approx(2 / 3, abs=1e-12)
    assert value_of(".abs_s") == pytest.approx(3.0, abs=0.05)
    assert value_of(".pairs").tolist() == [[0, 0]]


@pytest.mark.parametrize("command", ["scan", "chsh"])
def test_readme_config_file_runs(tmp_path, command):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(block, encoding="utf-8")
    small = ("--steps", "3") if command == "scan" else ()
    assert main([command, "--config", str(cfg), *small, "--pairs", "100",
                 "--out", str(tmp_path / "o")]) == 0


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # Each `eprblab ...` line, in order (events match reads what events gen
    # wrote), runs in a fresh directory and leaves a whole run record.
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
                if "\neprblab " in b]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("eprblab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out / "manifest.json").is_file(), argv
