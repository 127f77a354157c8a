"""Output checks, computed apart from the program.

Each check takes what one job wrote (dataset records, the snapshot
document) or reported (ledger, metric rows) and returns a list of problems;
an empty list means the check passed. They use the planted world, never the
program's own helpers, as the reference.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Any, Callable, Iterable, Mapping

from worldgen import Planted, key

LETTERS = ("A", "B", "C", "D")
MAX_ENTROPY = math.log(4.0)


def check_items(records: list[dict], d_max: int, planted: Planted) -> list[str]:
    """Options A-D with the key among them, no repeated question, the keep
    gate passed, ``level == d_max``, path hops that are planted facts (or
    their alias re-attribution) starting at the seed, and the key on the
    answer node's name (end node forward, start node reverse). An item
    without a path is keyed on one of the seed's planted fact tails."""
    problems: list[str] = []
    seen: set[str] = set()
    seed_tails = {key(t) for t in planted.seed_tails}
    for rec in records:
        rid = rec.get("id")
        options, answer = rec.get("options") or {}, rec.get("answer_key")
        if sorted(options) != list(LETTERS) or answer not in options:
            problems.append(f"{rid}: options {sorted(options)} with key {answer!r}")
            continue
        question = " ".join(str(rec.get("question", "")).lower().split())
        if question in seen:
            problems.append(f"{rid}: question repeats")
        seen.add(question)
        validation = rec.get("validation")
        if validation is not None and validation.get("kept") is not True:
            problems.append(f"{rid}: in the dataset but not kept by the critic")
        if rec.get("level") != d_max:
            problems.append(f"{rid}: level {rec.get('level')} != d_max {d_max}")
        path = rec.get("path") or []
        keyed = options[answer].lower()
        if not path:
            if key(options[answer]) not in seed_tails:
                problems.append(f"{rid}: key {options[answer]!r} is no planted fact of the topic")
            continue
        if len(path) != d_max:
            problems.append(f"{rid}: path of {len(path)} hops, d_max {d_max}")
        if path[0][0] != planted.seed:
            problems.append(f"{rid}: path starts at {path[0][0]!r}, not the seed")
        for (h, r, t), nxt in zip(path, path[1:] + [None]):
            if not planted.allows_edge(h, r, t):
                problems.append(f"{rid}: hop {h!r} -[{r}]-> {t!r} was never planted")
            if nxt is not None and nxt[0] != t:
                problems.append(f"{rid}: hops do not join at {t!r}")
        node = path[-1][2] if rec.get("orientation") == "forward" else path[0][0]
        name = planted.names.get(node, node)
        if name.lower() not in keyed:
            problems.append(f"{rid}: {rec.get('orientation')} key {options[answer]!r} "
                            f"does not name {name!r}")
    return problems


def check_graph(snapshot: Mapping[str, Any], d_max: int, max_branches: int,
                planted: Planted) -> list[str]:
    """Every node within ``d_max`` hops of the seed, at most ``max_branches``
    new children per expanded node, every edge a planted fact (or its alias
    re-attribution), and no planted near-duplicate pair kept as two edges."""
    problems: list[str] = []
    depth = {n["id"]: n["depth"] for n in snapshot["nodes"]}
    edges = [(e["head"], e["relation"], e["tail"]) for e in snapshot["edges"]]
    seed = snapshot["seed_id"]
    if seed != planted.seed:
        problems.append(f"seed {seed!r} is not the planted seed {planted.seed!r}")

    adjacency: dict[str, list[str]] = {n: [] for n in depth}
    for h, _r, t in edges:
        adjacency.setdefault(h, []).append(t)
    dist = {seed: 0}
    queue = deque([seed])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, []):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    for node in depth:
        if dist.get(node, d_max + 1) > d_max:
            problems.append(f"node {node!r} is {dist.get(node, 'not')} hops from the seed")

    children = Counter(
        h for h, t in {(h, t) for h, _r, t in edges}
        if h in depth and t in depth and depth[t] == depth[h] + 1
    )
    for node, count in children.items():
        if count > max_branches:
            problems.append(f"node {node!r} added {count} children, max_branches {max_branches}")

    edge_set = set(edges)
    for edge in edges:
        if not planted.allows_edge(*edge):
            problems.append(f"edge {edge} was never planted")
    for a, b in planted.near_dups:
        if a in edge_set and b in edge_set:
            problems.append(f"near-duplicates {a} and {b} both kept as edges")
    return problems


def check_ledger(ledger_totals: Mapping[str, tuple[int, int]],
                 counted: Mapping[str, tuple[int, int]],
                 expected_tags: Iterable[str]) -> list[str]:
    """Ledger per-tag token totals equal the wrapper's own counts, and the
    tags seen are exactly the mode's declared stage tags."""
    problems: list[str] = []
    ledger = {tag: tuple(pair) for tag, pair in ledger_totals.items()}
    ours = {tag: tuple(pair) for tag, pair in counted.items()}
    if ledger != ours:
        problems.append(f"ledger {sorted(ledger.items())} != counted {sorted(ours.items())}")
    if set(ledger) != set(expected_tags):
        problems.append(f"tags seen {sorted(ledger)} != declared {sorted(expected_tags)}")
    return problems


def entropy(logits: Iterable[float]) -> float:
    values = list(logits)
    peak = max(values)
    exps = [math.exp(v - peak) for v in values]
    total = sum(exps)
    return -sum((e / total) * math.log(e / total) for e in exps if e > 0.0)


def check_stats(records: list[dict], rows: list[dict], mean_entropy: float,
                logits: Callable[[dict], Iterable[float]]) -> list[str]:
    """Each row's entropy lies in [0, ln 4] and matches the entropy of the
    probe's logits for its item, and ``mean_entropy`` is the rows' mean."""
    problems: list[str] = []
    if [r.get("id") for r in rows] != [r.get("id") for r in records]:
        return ["metric rows do not match the dataset items"]
    for rec, row in zip(records, rows):
        value = row.get("entropy")
        if not isinstance(value, float) or not 0.0 <= value <= MAX_ENTROPY:
            problems.append(f"{row.get('id')}: entropy {value!r} outside [0, ln 4]")
            continue
        expected = entropy(logits(rec))
        if not math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{row.get('id')}: entropy {value} != {expected} from the probe")
    if rows:
        mean = math.fsum(r["entropy"] for r in rows if isinstance(r.get("entropy"), float)) / len(rows)
        if not math.isclose(mean_entropy, mean, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"mean_entropy {mean_entropy} != mean of rows {mean}")
    return problems


def check_same_bytes(reference: Mapping[str, str], current: Mapping[str, str]) -> list[str]:
    """Two runs at one seed wrote byte-identical files (compared by digest)."""
    return [f"{name} differs from the first run at this seed"
            for name in sorted(reference) if current.get(name) != reference[name]]
