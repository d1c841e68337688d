"""The README's Quick start, Command-line block, Configuration table, Layout
block and the package export list match the current API."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pwamalgam import cli, config

from .test_config import CONFIGS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "Quick start must hold exactly one python block"
    return blocks[0]


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), {"__name__": "quick_start"})
    lines = out.getvalue().splitlines()
    # One pointwise error, then one line per alpha of the sweep.
    assert len(lines) == 1 + 4
    assert float(lines[0]) < 1e-3


def test_command_line_block_parses():
    # Every documented command, `\` continuations joined, is one argparse
    # accepts; nothing runs.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.findall(r"```\n(.*?)```", section, flags=re.DOTALL)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 4
    for command in commands:
        words = shlex.split(command)
        assert words[0] == "pwamalgam"
        args = cli.build_parser().parse_args(words[1:])
        assert args.command == words[1]


def test_star_import_binds_every_exported_name():
    import pwamalgam

    namespace: dict[str, object] = {}
    exec("from pwamalgam import *", namespace)
    missing = [name for name in pwamalgam.__all__ if name not in namespace]
    assert not missing
    assert len(set(pwamalgam.__all__)) == len(pwamalgam.__all__)


def test_every_committed_config_is_named():
    text = README.read_text(encoding="utf-8")
    assert CONFIGS
    assert [p.name for p in CONFIGS if f"configs/{p.name}" not in text] == []


def test_configuration_table_matches_parser():
    # A row is "| `section` | `key` (default)...; `key` (default)... |".
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
    documented = {(name, key) for name, keys in rows for key in re.findall(r"`(\w+)` \(", keys)}
    assert documented == {(row[0], row[1]) for row in config._KEYS}


def test_layout_names_every_module():
    # The Layout block lists each module of the package, one line each.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^  (\w+\.py) ", section, flags=re.MULTILINE))
    package = README.parent / "src" / "pwamalgam"
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py"}
    assert listed == modules
