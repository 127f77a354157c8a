"""Source hygiene: every top-level import in the package is used; no
module but ``gateway.py`` imports a threading module, so ``ChatGateway.map``
stays the one place that starts threads and decides what a failed call
costs; no module but ``prompts.py`` spells a reply layout or a request
field's fixed text; nothing in the
package is reached only by tests; every name the package exports is
imported from it by a bench, tool or test file; and the mock path loads
neither numpy nor requests."""

from __future__ import annotations

import ast
import os
import re
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


# Text only ``prompts`` may write: each reply format's instruction, writer
# and reader live there, so a stage or the mock that spells one by hand
# could drift from what the reader accepts.
REPLY_MARKERS = ("Question:", "Correct Answer", "triplets", "Evidence: [", "YES|NO")
# The fixed text of each request field and block: its writer and its reader,
# ``read_field``, live in ``prompts`` too, so the mock reads what is written.
REQUEST_MARKERS = (
    "Explain the term", "parent term", "Term to define", "Candidate page title", 'Path: "',
    "Start Node", "End Node", "overall topic", "about the topic", "difficulty level",
    "Variation tag", "Topic (optional)", "--- ",
)


def _hand_written_replies(source: str, markers: tuple[str, ...] = REPLY_MARKERS) -> list[str]:
    """Each string constant of ``source`` outside a docstring that holds one
    of ``markers``, and each tuple that spells the option letters A-D."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found += [f"{m!r} (line {node.lineno})" for m in markers if m in node.value]
        elif isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts):
            if tuple(e.value for e in node.elts) == ("A", "B", "C", "D"):
                found.append(f"option letters (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "prompts.py"], ids=lambda p: p.name
)
def test_only_prompts_writes_or_reads_a_reply_layout(path):
    assert _hand_written_replies(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "prompts.py"], ids=lambda p: p.name
)
def test_only_prompts_writes_or_reads_a_request_field(path):
    assert _hand_written_replies(path.read_text(encoding="utf-8"), REQUEST_MARKERS) == []


def test_checker_flags_a_hand_written_request_field():
    source = (
        'def f(text):\n'
        '    """Reads the "Variation tag: N" line."""\n'
        '    return re.search(r"Variation tag: (\\d+)", text), text.partition("--- Evidence ---")\n'
    )
    assert _hand_written_replies(source, REQUEST_MARKERS) == [
        "'Variation tag' (line 3)",
        "'--- ' (line 3)",
    ]


def test_checker_flags_a_hand_written_reply():
    source = (
        'def f(stem):\n'
        '    """Writes a "Question:" line."""\n'
        '    letters = ("A", "B", "C", "D")\n'
        '    return f"Question: {stem}\\nCorrect Answer: A" + "Evidence: [1]"\n'
    )
    assert sorted(_hand_written_replies(source)) == [
        "'Correct Answer' (line 4)",
        "'Evidence: [' (line 4)",
        "'Question:' (line 4)",
        "option letters (line 3)",
    ]


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


_PACKAGE_IMPORT = re.compile(r"from knight import (?:\(([^)]*)\)|([\w ,]+))")


def _unimported_exports(exports: list[str], sources: list[str]) -> list[str]:
    """Names of ``exports`` that no ``from knight import …`` statement in
    ``sources`` names. The text is searched, not parsed, so an import made
    inside a string, as a subprocess's code is, counts too."""
    imported: set[str] = set()
    for source in sources:
        for parenthesized, line in _PACKAGE_IMPORT.findall(source):
            imported.update(re.findall(r"\w+", parenthesized or line))
    return sorted(set(exports) - imported)


def test_every_package_export_is_imported_from_the_package():
    import knight

    root = PACKAGE.parents[1]
    sources = [
        path.read_text(encoding="utf-8")
        for folder in ("bench", "tools", "tests")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    assert _unimported_exports(knight.__all__, sources) == []


def test_checker_flags_an_export_nothing_imports():
    sources = [
        "from knight import (\n    Topic,\n    build_config,\n)\n",
        'code = "from knight import run_pipeline\\nrun_pipeline()\\n"\n',
        "import knight.graph\nfrom knight.graph import Edge\nbuild_services()\n",
    ]
    exports = ["Edge", "Topic", "build_config", "build_services", "run_pipeline"]
    assert _unimported_exports(exports, sources) == ["Edge", "build_services"]


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
