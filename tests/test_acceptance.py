"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
import time

import pytest

from knight.adapters import AdapterSuite
from knight.builder import build_kg
from knight.cli import main as cli_main
from knight.config import PipelineConfig
from knight.curation import curate
from knight.errors import GenerationRejected, JsonlError
from knight.gateway import ChatGateway, MockChatBackend, MockOverride
from knight.graph import (
    KnowledgeGraph,
    PathSample,
    Topic,
    Triple,
    add_curated,
    enumerate_paths,
)
from knight.metrics import (
    ProbeLogits,
    fleiss_kappa,
    grammar_quality,
    off_topic_rate,
    pearson,
    predictive_entropy,
)
from knight.pipeline import MODE_TASK_TAGS, build_services, run_pipeline
from knight.qgen import generate_mcq, sample_paths
from knight.retrieval import FixtureWikiSource
from knight.storage import (
    item_to_record,
    load_snapshot,
    read_jsonl,
    record_to_item,
    save_snapshot,
    write_jsonl,
)
from knight.synthesis import dedup_triples, normalized_edit_distance
from knight.validation import ValidationReport, keep


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS - {name}")


# -- 1. determinism -------------------------------------------------------------


def test_criterion_01_determinism(tmp_path):
    digests = []
    started = time.perf_counter()
    for run in range(3):
        out = tmp_path / f"run{run}" / "bio_d2.json"
        out.parent.mkdir()
        rc = cli_main(
            [
                "run", "--mode", "knight", "--topic", "Biology", "--depth", "2",
                "--num-q", "10", "--seed", "7", "--output", str(out),
            ]
        )
        assert rc == 0
        dataset = out.read_bytes()
        snapshot = (out.parent / "bio_d2.snapshot.json").read_bytes()
        digests.append(
            (hashlib.sha256(dataset).hexdigest(), hashlib.sha256(snapshot).hexdigest())
        )
    elapsed = time.perf_counter() - started
    assert digests[0] == digests[1] == digests[2]
    assert len(read_jsonl(tmp_path / "run0" / "bio_d2.json")) == 10
    assert elapsed < 10.0
    _report(1, f"3 identical runs in {elapsed:.2f}s")


# -- 2. depth / branching bounds -------------------------------------------------


def test_criterion_02_depth_branching_bounds(world):
    runs = 0
    for seed in range(1, 18):
        for d_max in (1, 2, 3):
            config = PipelineConfig(rng_seed=seed, d_max=d_max, max_branches=2).validate()
            gateway = ChatGateway(MockChatBackend(world, rng_seed=seed))
            adapters = AdapterSuite.fixture_suite(world, rng_seed=seed)
            graph, report = build_kg(
                Topic("Biology"), config, gateway, FixtureWikiSource(world), adapters
            )
            bound = sum(2**level for level in range(d_max + 1))
            assert len(graph.nodes) <= bound, (seed, d_max)
            assert all(n.depth <= d_max for n in graph.nodes.values())
            assert report.nodes_added == len(graph.nodes) - 1
            runs += 1
    assert runs >= 50
    _report(2, f"{runs} seeded builds respected |V| <= sum(2^l) and depth <= d_max")


# -- 3. path enumeration oracle ---------------------------------------------------


def _oracle_paths(graph: KnowledgeGraph, start: str, d: int):
    adjacency = {nid: [] for nid in graph.nodes}
    for edge in graph.edges:
        adjacency[edge.head].append((edge.tail, edge.relation))
    found = []

    def recurse(nodes, relations):
        if len(relations) == d:
            found.append((tuple(nodes), tuple(relations)))
            return
        for tail, relation in adjacency[nodes[-1]]:
            if tail not in nodes:
                recurse(nodes + [tail], relations + [relation])

    recurse([start], [])
    return sorted(found)


def test_criterion_03_path_enumeration_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        n_nodes = rng.randint(2, 12)
        n_edges = rng.randint(1, 30)
        graph = KnowledgeGraph("n0")
        for i in range(1, n_nodes):
            graph.add_node(f"n{i}", depth=1)
        ids = sorted(graph.nodes)
        for _ in range(n_edges):
            head, tail = rng.choice(ids), rng.choice(ids)
            if head != tail:
                graph.add_edge(head, rng.choice(["r1", "r2", "r3"]), tail)
        for d in (1, 2, 3):
            got = [
                (tuple(p.node_ids), tuple(p.relations))
                for p in enumerate_paths(graph, "n0", d)
            ]
            assert got == _oracle_paths(graph, "n0", d)
    _report(3, "200 random graphs match brute-force DFS for d in {1,2,3}")


# -- 4. curator -------------------------------------------------------------------


def test_criterion_04_curator(tmp_path, world, adapters, config):
    # Alias merge with zero relation loss.
    def fresh_graph():
        graph = KnowledgeGraph("World History")
        node = graph.add_node("World War II", depth=1)
        graph.add_edge(graph.seed_id, "includes", node.id)
        return graph

    graph = fresh_graph()
    edges_before = len(graph.edges)
    nodes_before = len(graph.nodes)
    alias_triple = Triple("World History", "commemorates", "Second World War")
    outcome = curate(graph, graph.seed_id, [alias_triple], adapters, config)
    assert outcome.merged == [(alias_triple, "world war ii")]
    assert len(graph.nodes) == nodes_before
    assert len(graph.edges) == edges_before + 1  # the relation survives the merge

    # Permutation invariance of the surviving normalized-name set.
    base = [
        Triple("World History", "includes", "Cold War"),
        Triple("World History", "includes", "cold war"),
        Triple("World History", "includes", "Space Race"),
        Triple("World History", "commemorates", "Second World War"),
        Triple("World History", "mentions", "Implausible Claim"),
        Triple("World History", "cites", "forbidden test term"),
    ]
    rng = random.Random(42)
    reference = None
    for _ in range(20):
        shuffled = list(base)
        rng.shuffle(shuffled)
        g = fresh_graph()
        out = curate(g, g.seed_id, shuffled, adapters, config)
        add_curated(g, g.seed_id, out.accepted)
        surviving = frozenset(n.normalized_name for n in g.nodes.values())
        reference = reference or surviving
        assert surviving == reference

    # Reject JSONL accounts for 100% of pruned candidates on a real build
    # (seed 7 at depth 3 prunes a duplicate, so the check is not vacuous).
    rejects: list = []
    build_config = PipelineConfig(rng_seed=7, d_max=3).validate()
    gateway = ChatGateway(MockChatBackend(world, rng_seed=7))
    graph, report = build_kg(
        Topic("Biology"), build_config, gateway, FixtureWikiSource(world),
        AdapterSuite.fixture_suite(world, rng_seed=7), rejects=rejects,
    )
    rejects_path = tmp_path / "rejects.jsonl"
    write_jsonl([r.to_dict() for r in rejects], rejects_path)
    lines = read_jsonl(rejects_path)
    assert lines, "the fixture build must actually prune candidates"
    assert len(lines) == report.candidates_rejected
    assert report.candidates_rejected == round(
        report.curation_prune_rate * report.candidates_seen
    )
    _report(4, f"alias merge lossless; permutation-invariant; {len(lines)} reject(s) all logged")


# -- 5. dedup oracle ----------------------------------------------------------------


@functools.cache
def _naive_edit_distance(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[-1] == b[-1] else 1
    return min(
        _naive_edit_distance(a[:-1], b) + 1,
        _naive_edit_distance(a, b[:-1]) + 1,
        _naive_edit_distance(a[:-1], b[:-1]) + cost,
    )


def test_criterion_05_dedup_oracle():
    rng = random.Random(77)
    vocabulary = ["hafez", "hafes", "shiraz", "shiraaz", "iran", "poet", "war", "wars"]
    relations = ["born_in", "born_at", "located_in", "wrote"]
    checked = 0
    for _ in range(1000):
        a = Triple(rng.choice(vocabulary), rng.choice(relations), rng.choice(vocabulary))
        b = Triple(rng.choice(vocabulary), rng.choice(relations), rng.choice(vocabulary))
        key_a, key_b = a.key(), b.key()
        oracle = _naive_edit_distance(key_a, key_b) / max(len(key_a), len(key_b))
        assert normalized_edit_distance(key_a, key_b) == pytest.approx(oracle, abs=1e-12)
        lambda_max = rng.choice([0.05, 0.15, 0.3])
        kept = dedup_triples([a, b], lambda_max)
        expected = [a] if oracle <= lambda_max else [a, b]
        if key_a == key_b:
            expected = [a]
        assert kept == expected
        checked += 1
    rng_triples = [
        Triple(rng.choice(vocabulary), rng.choice(relations), rng.choice(vocabulary))
        for _ in range(40)
    ]
    once = dedup_triples(rng_triples, 0.15)
    assert dedup_triples(once, 0.15) == once
    _report(5, f"{checked} random pairs match the DP oracle; dedup idempotent")


# -- 6. keep-gate truth table ---------------------------------------------------------


def test_criterion_06_keep_gate_truth_table():
    combos = 0
    for bits in itertools.product([True, False], repeat=8):
        report = ValidationReport(
            grammar_fluency=bits[0],
            single_correct_key=bits[1],
            option_uniqueness=bits[2],
            answerable_from_source=bits[3],
            topic_relevant=bits[4],
            rule_four_options=bits[5],
            rule_one_key=bits[6],
            rule_options_distinct=bits[7],
        )
        assert keep(report) is all(bits)
        combos += 1
    # Not-applicable topic is excluded from the conjunction.
    for bits in itertools.product([True, False], repeat=7):
        report = ValidationReport(
            grammar_fluency=bits[0],
            single_correct_key=bits[1],
            option_uniqueness=bits[2],
            answerable_from_source=bits[3],
            topic_relevant=None,
            rule_four_options=bits[4],
            rule_one_key=bits[5],
            rule_options_distinct=bits[6],
        )
        assert keep(report) is all(bits)
        combos += 1
    _report(6, f"{combos} exhaustive flag combinations gate correctly")


# -- 7. orientation invariant -----------------------------------------------------------


def test_criterion_07_orientation_invariant(world):
    config = PipelineConfig(rng_seed=3, d_max=3).validate()
    gateway = ChatGateway(MockChatBackend(world, rng_seed=3))
    adapters = AdapterSuite.fixture_suite(world, rng_seed=3)
    graph, _ = build_kg(Topic("Biology"), config, gateway, FixtureWikiSource(world), adapters)

    pairs = sample_paths(graph, graph.seed_id, 2, 500, rng_seed=3)
    assert len(pairs) == 500
    occurrences: dict = {}
    emitted = 0
    for index, (path, orientation) in enumerate(pairs):
        key = (tuple(path.node_ids), orientation)
        variant = occurrences.get(key, 0)
        occurrences[key] = variant + 1
        [item] = generate_mcq(
            gateway, [(path, f"x{index}", variant)], orientation, "Biology", graph, config
        )
        answer_id = path.node_ids[-1] if orientation == "forward" else path.node_ids[0]
        answer_name = graph.nodes[answer_id].name.lower()
        assert answer_name in item.options[item.answer_key].lower()
        emitted += 1
    assert emitted == 500

    # A planted violating response is rejected, never emitted.
    bad = (
        "Question: broken?\nA) Unrelated\nB) Wrong\nC) Nope\nD) Missing\nCorrect Answer: A"
    )
    bad_gateway = ChatGateway(
        MockChatBackend(world, rng_seed=3, overrides=[MockOverride("mcq_forward", "Path:", bad)])
    )
    path, orientation = pairs[0]
    [outcome] = generate_mcq(bad_gateway, [(path, "bad", 0)], "forward", "Biology", graph, config)
    assert isinstance(outcome, GenerationRejected)
    assert "does not contain the answer node name" in str(outcome)
    _report(7, "500/500 items satisfy the key-placement rule; violations rejected")


# -- 8. metric golden values -------------------------------------------------------------


def test_criterion_08_metric_golden_values():
    _, h_uniform = predictive_entropy(ProbeLogits(2.0, 2.0, 2.0, 2.0))
    assert h_uniform == pytest.approx(math.log(4), abs=1e-9)

    _, h_onehot = predictive_entropy(ProbeLogits(1000.0, 0.0, 0.0, 0.0))
    assert h_onehot < 1e-9

    base = (0.9, -1.4, 0.3, 2.2)
    _, h0 = predictive_entropy(ProbeLogits(*base))
    _, h1 = predictive_entropy(ProbeLogits(*(z + 123.456 for z in base)))
    assert abs(h0 - h1) <= 1e-12

    assert grammar_quality(20, 1) == 0.95

    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0, abs=1e-12)

    assert fleiss_kappa([[4, 0], [0, 4], [4, 0]]) == 1.0

    flags_a = [i < 30 for i in range(100)]
    flags_b = [20 <= i < 40 for i in range(100)]
    assert off_topic_rate(flags_a, flags_b) == pytest.approx(10 / 100)
    _report(8, "entropy/grammar/pearson/kappa/off-topic golden values hold")


# -- 9. directional entropy pattern ---------------------------------------------------------


def test_criterion_09_directional_entropy():
    results = {}
    for depth in (1, 3):
        config = PipelineConfig(rng_seed=7, d_max=depth, pipeline_mode="knight").validate()
        result, _ = run_pipeline(Topic("Biology"), config, 24)
        assert result.kept_items, f"no items at level {depth}"
        results[depth] = result.stats
    assert results[3].mean_entropy > results[1].mean_entropy
    assert results[3].probe_accuracy < results[1].probe_accuracy
    _report(
        9,
        "H: L1 {:.3f} < L3 {:.3f}; probe acc: L1 {:.2f} > L3 {:.2f}".format(
            results[1].mean_entropy,
            results[3].mean_entropy,
            results[1].probe_accuracy,
            results[3].probe_accuracy,
        ),
    )


# -- 10. round-trips ---------------------------------------------------------------------


def test_criterion_10_round_trips(tmp_path):
    rng = random.Random(99)
    records = []
    for idx in range(1000):
        hops = rng.randint(1, 3)
        node_ids = [f"n{idx}_{i}" for i in range(hops + 1)]
        relations = [rng.choice(["links_to", "feeds", "causes"]) for _ in range(hops)]
        orientation = rng.choice(["forward", "reverse"])
        flags = None
        if rng.random() < 0.6:
            flags = ValidationReport(
                grammar_fluency=True,
                single_correct_key=True,
                option_uniqueness=True,
                answerable_from_source=rng.random() < 0.9,
                topic_relevant=rng.choice([True, False, None]),
                rule_four_options=True,
                rule_one_key=True,
                rule_options_distinct=True,
            )
            flags.kept = all(flags.applicable_flags())
        from knight.qgen import McqItem

        records.append(
            McqItem(
                id=f"r{idx}",
                question=f"Random question {idx}?",
                options={letter: f"opt-{letter}-{idx}" for letter in "ABCD"},
                answer_key=rng.choice("ABCD"),
                topic=rng.choice(["Biology", "History", "Mathematics"]),
                level=hops,
                orientation=orientation,
                path=PathSample(node_ids, relations),
                source_context=f"ctx {idx}",
                flags=flags,
                provenance={"seed_node": node_ids[0], "passage_ids": [f"p{idx}"],
                            "mixture_weights": [1.0], "parametric_fallback": False},
            )
        )
    dataset_path = tmp_path / "big.jsonl"
    write_jsonl([item_to_record(i) for i in records], dataset_path)
    loaded = [record_to_item(r) for r in read_jsonl(dataset_path)]
    assert loaded == records

    graph = KnowledgeGraph("Seed")
    for i in range(20):
        node = graph.add_node(f"Concept {i}", depth=1 + (i % 3))
        node.gloss = f"gloss {i}"
        graph.add_edge(graph.seed_id, "links_to", node.id)
    snapshot_path = tmp_path / "graph.json"
    save_snapshot(graph, snapshot_path, topic="Seed")
    restored = load_snapshot(snapshot_path)
    assert {n.id for n in restored.nodes.values()} == set(graph.nodes)
    assert restored.sorted_edges() == graph.sorted_edges()

    corrupt = tmp_path / "corrupt.jsonl"
    good_line = json.dumps({"ok": True})
    corrupt.write_text(f"{good_line}\n{good_line}\nBROKEN{{\n", encoding="utf-8")
    with pytest.raises(JsonlError) as excinfo:
        read_jsonl(corrupt)
    assert excinfo.value.line_number == 3
    _report(10, "1000 records + snapshot round-trip losslessly; line errors name the line")


# -- 11. mode contract ------------------------------------------------------------------


def test_criterion_11_mode_contract():
    for mode, expected in MODE_TASK_TAGS.items():
        config = PipelineConfig(rng_seed=7, d_max=2, pipeline_mode=mode).validate()
        services = build_services(config)
        result, services = run_pipeline(Topic("Biology"), config, 4, services=services)
        seen = services.gateway.ledger.tags_seen()
        assert seen == set(expected), f"mode {mode}: {sorted(seen)} != {sorted(expected)}"
        assert result.kept_items
    _report(11, "all five modes log exactly their declared task tags")


# -- 12. CLI conformance ----------------------------------------------------------------


def test_criterion_12_cli_conformance(tmp_path, capsys):
    output = tmp_path / "bio_d2.json"
    rc = cli_main(
        [
            "--topic", "Biology", "--prompt", "multiple-choice", "--depth", "2",
            "--num-q", "10", "--output", str(output), "--validate",
        ]
    )
    assert rc == 0
    assert len(read_jsonl(output)) == 10
    capsys.readouterr()

    rc = cli_main(["run", "--topic", "Biology", "--depth", "0", "--output", "x.json"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()

    rc = cli_main(["run", "--topic", "Biology", "--mode", "warp", "--output", "x.json"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err.lower()
    _report(12, "documented invocation runs; bad depth/mode exit 2 with usage text")
