"""List the lines of ``src/knight`` that no run reaches, standard library only.

    python3 tools/reach.py

Runs, each in its own traced child process: the tier-1 tests,
``tools/golden.py`` into a temporary directory, and ``bench/run.py`` on
each workload ``BENCHMARK.json`` lists, at ``--trace 0`` and ``--trace 1``
for 2 seconds each. It only reads ``bench/``; the bench
writes its scratch files under ``.bench_work/`` as it always does. A child
traces with ``sys.settrace`` and ``threading.settrace``, and only frames
of ``src/knight`` files get a line tracer.

A line is executable when the ``co_lines`` of a code object compiled from
its module name it. For each module, the report prints every executable
line that no golden or bench run reached, marked ``T`` when a tier-1 test
reached it; an unmarked line is reached by nothing. Only a Protocol's
``...`` body or an import under ``if TYPE_CHECKING:`` may be: the report
ends with every other such line. Each child's exit code goes to standard
error, and the report to standard output. Exits 1 when a child run fails
or when some other line is reached by nothing.

The program is traced from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "knight"
BENCH_SECONDS = 2


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` names."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]
    return lines


def report(path: Path, runs: set[int], tests: set[int]) -> list[str]:
    """The report's lines for one module: a header, then each executable
    line not in ``runs``, marked ``T`` when it is in ``tests``."""
    missed = sorted(executable_lines(path) - runs)
    if not missed:
        return []
    source = path.read_text(encoding="utf-8").splitlines()
    untested = sum(line not in tests for line in missed)
    lines = [f"{path.name}: {len(missed)} lines no run reaches, {untested} of them no test reaches"]
    lines += [
        f"{line:>5} {'T' if line in tests else ' '} {source[line - 1].rstrip()}" for line in missed
    ]
    return lines


def _owner(source: list[str], at: int) -> int | None:
    """The index of the nearest line above index ``at`` that is indented
    less than it; None for a line at the margin."""
    depth = len(source[at]) - len(source[at].lstrip())
    return max((i for i in range(at) if source[i].strip()
                and len(source[i]) - len(source[i].lstrip()) < depth), default=None)


def _exempt(source: list[str], line: int) -> bool:
    """Whether ``line`` of ``source`` may be reached by nothing: a ``...``
    body of a method of a Protocol class, or an import under
    ``if TYPE_CHECKING:``."""
    at = line - 1
    text, owner = source[at].strip(), _owner(source, at)
    if owner is None:
        return False
    if text == "...":
        cls = _owner(source, owner)
        return cls is not None and "(Protocol)" in source[cls]
    return source[owner].strip() == "if TYPE_CHECKING:" and text.startswith(("from ", "import "))


def reached_by_nothing(path: Path, runs: set[int], tests: set[int]) -> list[str]:
    """``name:line: text`` for each executable line of ``path`` that neither
    ``runs`` nor ``tests`` reach and that is not ``_exempt``."""
    source = path.read_text(encoding="utf-8").splitlines()
    missed = sorted(executable_lines(path) - runs - tests)
    return [f"{path.name}:{n}: {source[n - 1].strip()}" for n in missed if not _exempt(source, n)]


def _child(hits_path: str, target: list[str]) -> int:
    """Run ``target`` (``-m MODULE ARGS`` or ``SCRIPT ARGS``) in this process,
    tracing lines of the package, and write the hits as JSON."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = hits.setdefault(filename, set())
        seen.add(frame.f_lineno)  # the call event: a def or decorator line

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    module = target[1] if target[0] == "-m" else None
    sys.argv = target[1:] if module else target
    if not module:
        sys.path[0] = str(Path(target[0]).resolve().parent)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if module:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target[0], run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        Path(hits_path).write_text(json.dumps({f: sorted(s) for f, s in hits.items()}))
    return code


def workloads() -> list[str]:
    """The names of the workloads ``BENCHMARK.json`` lists, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in benchmark["workloads"]]


def _runs(scratch: Path) -> list[tuple[str, bool, list[str]]]:
    """(name, is tier-1, target) for each traced run."""
    tier1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    golden = [str(ROOT / "tools" / "golden.py"), "--out", str(scratch / "golden")]
    bench = [
        (f"bench {workload} trace {trace}", False,
         [str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
          "--seconds", str(BENCH_SECONDS), "--trace", str(trace)])
        for workload in workloads()
        for trace in (0, 1)
    ]
    return [("tier-1", True, tier1), ("golden", False, golden)] + bench


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2:])
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)

    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # Added to, never replaced: settings such as PYTHONDONTWRITEBYTECODE carry over.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    runs: dict[str, set[int]] = {}
    tests: dict[str, set[int]] = {}
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, is_tier1, target in _runs(Path(scratch)):
            hits_path = Path(scratch) / "hits.json"
            began = time.monotonic()
            result = subprocess.run(
                [sys.executable, __file__, "--child", str(hits_path), *target],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            print(f"{name}: exit {result.returncode} in {time.monotonic() - began:.0f} s",
                  file=sys.stderr)
            if result.returncode != 0:
                failed += 1
                print(result.stderr[-2000:], file=sys.stderr)
            if not hits_path.exists():
                continue
            into = tests if is_tier1 else runs
            for filename, lines in json.loads(hits_path.read_text()).items():
                into.setdefault(filename, set()).update(lines)
            hits_path.unlink()

    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        hits = runs.get(str(path), set()), tests.get(str(path), set())
        lines = report(path, *hits)
        if lines:
            print("\n".join(lines))
        unreached += reached_by_nothing(path, *hits)
    print("reached by nothing, and not a Protocol body or a typing import:")
    print("\n".join(unreached) or "no such line")
    return 1 if failed or unreached else 0


if __name__ == "__main__":
    raise SystemExit(main())
