"""Source hygiene: every top-level import in the package is used; no
module but ``gateway.py`` imports a threading module, so ``ChatGateway.map``
stays the one place that starts threads and decides what a failed call
costs; nothing in the package is reached only by tests; and the mock path
loads neither numpy nor requests."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
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


# Definitions the package never calls, each kept for a test that checks a
# contract of the paper.
TEST_ONLY = {
    "pearson": "acceptance criterion 8 checks it against golden values",
    "fleiss_kappa": "acceptance criterion 8 checks it against golden values",
    "TokenLedger.tags_seen": "acceptance criterion 11 compares a run's tags with its mode's",
}


def _mentions(node: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute under ``node``."""
    found: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
    return found


def _unreached(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods, that no
    module of ``sources`` but ``__init__.py`` mentions outside their own
    definition, by qualified name.

    Matching is by bare name, so a dead method that shares its name with a
    live attribute, variable or function elsewhere goes unflagged. A
    mention from another dead definition counts too, so of a dead chain
    only its head is flagged until that head is deleted."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    mentioned: Counter = Counter()
    definitions: list[tuple[str, ast.AST]] = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        mentioned += _mentions(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return sorted(
        qualified
        for qualified, node in definitions
        if mentioned[node.name] - _mentions(node)[node.name] <= 0
    )


def test_nothing_is_reached_only_by_tests():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _unreached(sources) == sorted(TEST_ONLY)


def test_checker_flags_a_definition_reached_only_by_itself_or_init():
    sources = {
        "__init__.py": "from .a import Thing, helper\nhelper()\n",
        "a.py": (
            "def helper():\n"
            "    return helper()\n"
            "class Thing:\n"
            "    def used(self):\n"
            "        return 1\n"
            "    def spare(self):\n"
            "        return self.used()\n"
            "    def lonely(self):\n"
            "        return self.lonely()\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "b.py": "from .a import Thing\nThing().spare()\n",
    }
    assert _unreached(sources) == ["Thing.lonely", "helper"]


def test_mock_path_imports_neither_numpy_nor_requests():
    # A fresh interpreter: this test process has imported both already.
    code = (
        "import sys\n"
        "from knight import build_config, build_services\n"
        "build_services(build_config(env={}))\n"
        "print(sorted({'numpy', 'requests'} & set(sys.modules)))\n"
    )
    pythonpath = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
