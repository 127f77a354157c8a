"""Write the golden artifact set and print one sha256 per file, standard library only.

    python3 tools/golden.py --out DIR [--against LISTING]

Runs ``knight run`` on the mock backend in all five modes, for Biology and
History, at ``max_inflight`` 1 and 4 (``--depth 2 --num-q 12 --seed 0``),
and ``knight build --topic Biology --depth 3``. On the Biology ``knight``
run at bound 1 it then runs ``knight generate`` (plain, with
``--validate``, and with ``--snapshot`` on that run's snapshot), and
``knight validate`` and ``knight eval`` on that run's dataset. Every
dataset, snapshot, rejects, metrics and report file they write goes under
``DIR`` (give an empty one); the listing on standard output has one ``<sha256>  <file>`` line per
file in ``DIR``, sorted by name, so two checkouts produce byte-identical
artifacts exactly when their listings are equal (``diff`` them). Exits 1
if any command fails.

With ``--against LISTING`` (the saved standard output of an earlier run),
it prints instead one ``changed``, ``missing`` or ``new`` line for every
file whose sha256 differs from the listing's, that the listing names but
this run did not write, or that this run wrote but the listing lacks, and
exits 1 if there is any.

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
    # Later commands read the outputs of this earlier run, so order matters.
    dataset = str(out / "knight-biology-inflight1.jsonl")
    snapshot = str(out / "knight-biology-inflight1.snapshot.json")
    generate = ["generate", "--topic", "Biology", "--mode", "knight", "--depth", "2",
                "--num-q", "12", "--seed", "0"]
    reads = ["--depth", "2", "--seed", "0", "--input", dataset]
    return runs + [
        build,
        generate + ["--output", str(out / "generate-biology.jsonl")],
        generate + ["--validate", "--output", str(out / "generate-validate-biology.jsonl")],
        generate + ["--snapshot", snapshot, "--output", str(out / "generate-snapshot-biology.jsonl")],
        ["validate", *reads, "--output", str(out / "validate-knight-biology.jsonl")],
        ["eval", *reads, "--report", str(out / "eval-knight-biology.json"),
         "--csv", str(out / "eval-knight-biology.csv")],
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for the artifacts")
    parser.add_argument("--against", type=Path, help="earlier listing to compare with")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    failed = 0
    for command in commands(args.out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = knight(command)
        if code != 0:
            print(f"exit {code}: knight {' '.join(command)}", file=sys.stderr)
            failed += 1

    listing = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in args.out.iterdir() if p.is_file())
    }
    if args.against is None:
        for name, digest in listing.items():
            print(f"{digest}  {name}")
        return 1 if failed else 0

    rows = (line.split(maxsplit=1) for line in args.against.read_text().splitlines())
    earlier = {name: digest for digest, name in rows}
    differences = []
    for name in sorted(listing.keys() | earlier.keys()):
        if name not in listing:
            differences.append(f"missing  {name}")
        elif name not in earlier:
            differences.append(f"new  {name}")
        elif listing[name] != earlier[name]:
            differences.append(f"changed  {name}")
    print("\n".join(differences) if differences else f"all {len(listing)} files match")
    return 1 if failed or differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
