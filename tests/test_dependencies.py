"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules() -> dict[str, str]:
    """Top-level module -> first file importing it, over ``src/repro``."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0],
                                 str(path.relative_to(ROOT)))
    return found


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project.get("dependencies", [])
    }


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    undeclared = {
        module: path
        for module, path in _imported_top_level_modules().items()
        if module != "repro" and module not in sys.stdlib_module_names
        and module not in declared
    }
    assert not undeclared, (
        f"imported but missing from pyproject.toml dependencies: {undeclared}")
