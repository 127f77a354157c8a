"""Source hygiene: every top-level import in the package is used, and no
module but ``gateway.py`` imports a threading module, so ``ChatGateway.map``
stays the one place that starts threads and decides what a failed call
costs."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knight"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # Names re-exported through __all__ count as used.
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]


def _thread_imports(source: str) -> list[str]:
    """Modules of the ``threading`` or ``concurrent`` packages that ``source``
    imports, at any nesting level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in ("threading", "concurrent")]
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "gateway.py"], ids=lambda p: p.name
)
def test_only_the_gateway_imports_threading(path):
    assert _thread_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_thread_import():
    source = (
        "import os, threading as t\n"
        "def f():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "from . import threading\n"
    )
    assert _thread_imports(source) == ["threading", "concurrent.futures"]
