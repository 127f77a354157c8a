"""Write the golden artifact set and print one sha256 per file, standard library only.

    python3 tools/golden.py --out DIR

Runs ``knight run`` on the mock backend in all five modes, for Biology and
History, at ``max_inflight`` 1 and 4 (``--depth 2 --num-q 12 --seed 0``),
and ``knight build --topic Biology --depth 3``. Every dataset, snapshot,
rejects and metrics file they write goes under ``DIR`` (give an empty
one); the listing on standard output has one ``<sha256>  <file>`` line per
file in ``DIR``, sorted by name, so two checkouts produce byte-identical
artifacts exactly when their listings are equal (``diff`` them). Exits 1
if any command fails.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knight.cli import main as knight  # noqa: E402
from knight.config import PIPELINE_MODES  # noqa: E402

TOPICS = ("Biology", "History")
INFLIGHT = (1, 4)


def commands(out: Path) -> list[list[str]]:
    runs = [
        ["run", "--topic", topic, "--mode", mode, "--depth", "2", "--num-q", "12",
         "--seed", "0", "--max-inflight", str(inflight),
         "--output", str(out / f"{mode}-{topic.lower()}-inflight{inflight}.jsonl")]
        for mode in PIPELINE_MODES
        for topic in TOPICS
        for inflight in INFLIGHT
    ]
    build = ["build", "--topic", "Biology", "--depth", "3",
             "--output", str(out / "build-biology-depth3.json")]
    return runs + [build]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the artifacts")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    failed = 0
    for command in commands(args.out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = knight(command)
        if code != 0:
            print(f"exit {code}: knight {' '.join(command)}", file=sys.stderr)
            failed += 1

    for path in sorted(p for p in args.out.iterdir() if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
