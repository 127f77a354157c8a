"""Seeded microbenchmarks of the pure-Python CPU paths, standard library only.

    python3 tools/microbench.py [--seed 0] [--repeats 5]

Times ``chunk_text`` on synthetic pages of 10,000 and 50,000 words
(100-word paragraphs, a sentence end about every 12 words),
``score_and_rerank`` of the 50,000-word page's chunks (more than the
first-stage cut, so BM25 runs), and ``dedup_triples`` on 20, 50 and 100
random triples (3-word head, 4-word tail, lambda 0.2). Prints one JSON
object: for each case, the median and the minimum wall time over the
repeats in seconds, the output size, and a digest of the output, so that
runs of two checkouts can be checked to agree. The ``chunk_text`` and
``score_and_rerank`` cases also give the ``tracemalloc`` peak of one more
call, its result included, in MB (10**6 bytes); it is measured apart from
the timed calls, since tracing slows allocation.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knight.graph import Triple  # noqa: E402
from knight.retrieval import (  # noqa: E402
    LexicalCosineScorer,
    chunk_text,
    score_and_rerank,
)
from knight.synthesis import dedup_triples  # noqa: E402

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 9)))


def make_page(rng: random.Random, words: int, paragraph_words: int = 100) -> str:
    paragraphs = []
    for start in range(0, words, paragraph_words):
        tokens = [_word(rng) for _ in range(min(paragraph_words, words - start))]
        for i in range(11, len(tokens), 12):
            tokens[i] += "."
        paragraphs.append(" ".join(tokens))
    return "\n\n".join(paragraphs)


def make_triples(rng: random.Random, count: int) -> list[Triple]:
    return [
        Triple(
            " ".join(_word(rng) for _ in range(3)),
            f"{_word(rng)}_{_word(rng)}",
            " ".join(_word(rng) for _ in range(4)),
        )
        for _ in range(count)
    ]


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


def _time(fn, repeats: int) -> tuple[list[float], object]:
    times, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return times, result


def _peak_mb(fn) -> float:
    """Peak traced allocation of one call of ``fn``, its result included."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    cases = {}
    for words in (10_000, 50_000):
        page = make_page(random.Random(f"page:{args.seed}:{words}"), words)
        chunk = partial(chunk_text, page, 1000, 100)
        times, chunks = _time(chunk, args.repeats)
        cases[f"chunk_text.{words}_words"] = (times, len(chunks), _digest(chunks), _peak_mb(chunk))
    candidates = [(f"page#chunk{i}", text) for i, text in enumerate(chunks)]
    query = " ".join(random.Random(f"query:{args.seed}").sample(page.split(), 3))
    rank = partial(score_and_rerank, query, candidates, LexicalCosineScorer(), score_floor=0.0)
    times, ranked = _time(rank, args.repeats)
    cases[f"score_and_rerank.{len(candidates)}_chunks"] = (
        times, len(ranked.passages), _digest([f"{p.id}:{p.score!r}" for p in ranked.passages]),
        _peak_mb(rank),
    )
    for count in (20, 50, 100):
        triples = make_triples(random.Random(f"triples:{args.seed}:{count}"), count)
        times, kept = _time(lambda: dedup_triples(triples, 0.2), args.repeats)
        cases[f"dedup_triples.{count}_triples"] = (
            times, len(kept), _digest([t.key() for t in kept]), None
        )

    report = {
        "seed": args.seed,
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "cases": {
            name: {
                "median_s": round(statistics.median(times), 6),
                "min_s": round(min(times), 6),
                **({} if peak is None else {"tracemalloc_peak_mb": peak}),
                "output_len": size,
                "output_digest": digest,
            }
            for name, (times, size, digest, peak) in cases.items()
        },
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
