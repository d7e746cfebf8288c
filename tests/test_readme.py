"""The README's code examples run as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import alskit
from alskit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    termination, f = capsys.readouterr().out.split()
    assert termination != "degenerate"
    assert float(f) < 0.0


def test_readme_cli_lines_use_full_flag_names():
    # argparse would accept a prefix such as --out; the README spells each flag out
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]
    text = README.read_text().replace("\\\n", " ")
    commands = re.findall(r"python3 -m alskit (\w+)(.*)", text)
    assert len(commands) >= 6
    for command, rest in commands:
        sub = subparsers.choices[command]
        flags = {s for action in sub._actions for s in action.option_strings}
        for flag in re.findall(r"(?<!\S)--[a-z][a-z-]*", rest):
            assert flag in flags, (command, flag)


def test_readme_module_names_exist():
    # a name deleted from the code must not linger in the docs
    modules = {m.name for m in pkgutil.iter_modules(alskit.__path__)}
    names = re.findall(r"`(\w+)\.(\w+)", README.read_text())
    named = sorted({(mod, name) for mod, name in names if mod in modules})
    assert len(named) >= 8
    for mod, name in named:
        assert hasattr(importlib.import_module(f"alskit.{mod}"), name), f"{mod}.{name}"
