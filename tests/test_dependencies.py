"""Every module the package imports is the standard library's, the
package's own, or a dependency that ``pyproject.toml`` declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pwamalgam"


def declared_dependencies(pyproject: Path) -> set[str]:
    """The distribution names of ``[project] dependencies``, lower case with
    ``-`` as ``_``, version specifiers and extras dropped."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")
    with open(pyproject, "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports of the module at `path`;
    relative imports stay inside the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def undeclared_imports(pyproject: Path) -> dict[str, set[str]]:
    allowed = set(sys.stdlib_module_names) | {"pwamalgam"} | declared_dependencies(pyproject)
    found = {path.name: imported_modules(path) - allowed for path in sorted(PACKAGE.glob("*.py"))}
    return {name: modules for name, modules in found.items() if modules}


def test_package_imports_only_declared_modules():
    assert undeclared_imports(ROOT / "pyproject.toml") == {}


def test_a_dropped_dependency_is_caught(tmp_path):
    # orjson leaves the list: cli's import of it is now undeclared.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(re.sub(r'\s*"orjson[^"]*",', "", text, count=1), encoding="utf-8")
    assert undeclared_imports(pyproject) == {"cli.py": {"orjson"}}
