from __future__ import annotations

import json
import random

import pytest

from knight.builder import BuildReport
from knight.config import PipelineConfig, build_config
from knight.errors import ConfigError, JsonlError, SnapshotFormatError, SnapshotVersionError
from knight.graph import Edge, KnowledgeGraph, Node, PathSample
from knight.qgen import McqItem
from knight.storage import (
    BoltGraphStore,
    canonical_json,
    item_to_record,
    load_snapshot,
    mirror_graph,
    open_graph_store,
    read_items,
    read_jsonl,
    record_to_item,
    save_snapshot,
    write_jsonl,
)
from knight.validation import ValidationReport


def _fixture_graph(n_extra=6) -> KnowledgeGraph:
    graph = KnowledgeGraph("Seed Topic")
    graph.nodes[graph.seed_id].gloss = "the seed gloss"
    graph.nodes[graph.seed_id].provenance = ["Seed#summary"]
    parent = graph.seed_id
    for i in range(n_extra):
        node = graph.add_node(f"Node {i}", depth=(i % 3) + 1)
        node.gloss = f"gloss {i}" if i % 2 == 0 else None
        node.parametric_fallback = i % 2 == 1
        graph.add_edge(parent, "links_to", node.id)
        parent = node.id
    return graph


def _graph_signature(graph: KnowledgeGraph):
    nodes = sorted(
        (n.id, n.name, n.depth, n.gloss, tuple(n.provenance), n.parametric_fallback)
        for n in graph.nodes.values()
    )
    edges = sorted((e.head, e.relation, e.tail) for e in graph.edges)
    return nodes, edges, graph.seed_id


# -- snapshots ----------------------------------------------------------------


def test_snapshot_roundtrip_seed_only(tmp_path):
    graph = KnowledgeGraph("Lonely")
    path = tmp_path / "g.json"
    save_snapshot(graph, path, topic="Lonely")
    loaded = load_snapshot(path)
    assert _graph_signature(loaded) == _graph_signature(graph)


def test_snapshot_roundtrip_and_byte_stability(tmp_path):
    graph = _fixture_graph()
    report = BuildReport(nodes_added=6, edges_added=6)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_snapshot(graph, path_a, topic="Seed Topic", report=report)
    loaded = load_snapshot(path_a)
    assert _graph_signature(loaded) == _graph_signature(graph)
    save_snapshot(loaded, path_b, topic="Seed Topic", report=report)
    assert path_a.read_bytes() == path_b.read_bytes()
    # wall time never lands in the file, keeping reruns byte-identical
    assert "wall_time_seconds" not in path_a.read_text(encoding="utf-8")


def test_snapshot_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1, "nodes": [', encoding="utf-8")
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_snapshot_version_mismatch(tmp_path):
    graph = KnowledgeGraph("Topic")
    path = tmp_path / "g.json"
    save_snapshot(graph, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SnapshotVersionError):
        load_snapshot(path)


def test_snapshot_ignores_unknown_fields(tmp_path):
    graph = _fixture_graph(2)
    path = tmp_path / "g.json"
    save_snapshot(graph, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["future_field"] = {"x": 1}
    doc["nodes"][0]["novel_attribute"] = "ignored"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_snapshot(path)
    assert _graph_signature(loaded) == _graph_signature(graph)


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _plus_edge(**edge):
    return lambda doc: {**doc, "edges": doc["edges"] + [{"head": doc["seed_id"], **edge}]}


_MALFORMED = "node/edge malformed"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [doc], "root must be an object"),
        (_without("nodes"), "missing field 'nodes'"),
        (_without("edges"), "missing field 'edges'"),
        (_without("seed_id"), "missing field 'seed_id'"),
        (lambda doc: {**doc, "seed_id": "elsewhere"}, "not among nodes"),
        (lambda doc: {**doc, "nodes": doc["nodes"] + [{"name": "No Id", "depth": 1}]}, _MALFORMED),
        (lambda doc: {**doc, "nodes": doc["nodes"] + [{"id": "x", "name": "X", "depth": "deep"}]},
         _MALFORMED),
        (_plus_edge(relation="links_to"), _MALFORMED),
        (_plus_edge(relation="links_to", tail="nowhere"), _MALFORMED),
        (lambda doc: _plus_edge(relation="Bad Rel", tail=doc["nodes"][-1]["id"])(doc), _MALFORMED),
    ],
    ids=["root-list", "no-nodes", "no-edges", "no-seed", "seed-not-a-node", "node-without-id",
         "bad-depth", "edge-without-tail", "dangling-edge", "bad-relation"],
)
def test_snapshot_malformed_document(tmp_path, edit, message):
    path = tmp_path / "g.json"
    save_snapshot(_fixture_graph(2), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(doc)), encoding="utf-8")
    with pytest.raises(SnapshotFormatError, match=message):
        load_snapshot(path)


def test_snapshot_missing_file(tmp_path):
    with pytest.raises(SnapshotFormatError):
        load_snapshot(tmp_path / "nope.json")


# -- JSONL --------------------------------------------------------------------


def _random_item(rng: random.Random, idx: int) -> McqItem:
    hops = rng.randint(1, 3)
    node_ids = [f"n{idx}_{i}" for i in range(hops + 1)]
    relations = [rng.choice(["has_part", "links_to", "causes"]) for _ in range(hops)]
    orientation = rng.choice(["forward", "reverse"])
    options = {letter: f"option {letter}{idx}" for letter in "ABCD"}
    flags = None
    if rng.random() < 0.5:
        flags = ValidationReport(
            grammar_fluency=True,
            single_correct_key=True,
            option_uniqueness=True,
            answerable_from_source=rng.random() < 0.8,
            topic_relevant=rng.choice([True, False, None]),
            rule_four_options=True,
            rule_one_key=True,
            rule_options_distinct=True,
        )
        flags.kept = all(flags.applicable_flags())
    return McqItem(
        id=f"item-{idx}",
        question=f"Question {idx} about something?",
        options=options,
        answer_key=rng.choice("ABCD"),
        topic="Topic",
        level=hops,
        orientation=orientation,
        path=PathSample(node_ids, relations),
        source_context=f"context {idx}",
        flags=flags,
        provenance={"seed_node": node_ids[0], "passage_ids": [], "mixture_weights": [],
                    "parametric_fallback": False},
    )


def test_jsonl_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_jsonl([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert read_jsonl(path) == []


def test_jsonl_items_roundtrip_field_for_field(tmp_path):
    rng = random.Random(2)
    items = [_random_item(rng, i) for i in range(10)]
    path = tmp_path / "data.jsonl"
    write_jsonl([item_to_record(i) for i in items], path)
    loaded = [record_to_item(r) for r in read_jsonl(path)]
    assert loaded == items
    assert read_items(path) == items


def test_record_to_item_rejects_unknown_orientation():
    record = item_to_record(_random_item(random.Random(3), 0))
    record["orientation"] = "sideways"
    with pytest.raises(ValueError, match="orientation"):
        record_to_item(record)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.pop("id"),
        lambda r: r.update(answer_key="E"),
        lambda r: r.update(orientation="sideways"),
        lambda r: r.update(path=[["a", "rel"]]),
        lambda r: r.update(validation=["kept"]),
    ],
)
def test_read_items_names_the_malformed_record_line(tmp_path, corrupt):
    good, bad = (item_to_record(_random_item(random.Random(4), i)) for i in range(2))
    corrupt(bad)
    path = tmp_path / "data.jsonl"
    path.write_text(canonical_json(good) + "\n\n" + canonical_json(bad) + "\n", encoding="utf-8")
    with pytest.raises(JsonlError) as excinfo:
        read_items(path)
    assert excinfo.value.line_number == 3


def test_jsonl_corrupted_line_names_index(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [canonical_json({"k": i}) for i in range(5)]
    lines[2] = '{"k": not json'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JsonlError) as excinfo:
        read_jsonl(path)
    assert excinfo.value.line_number == 3
    assert "line 3" in str(excinfo.value)


def test_jsonl_blank_lines_skipped(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"a":1}\n\n   \n{"b":2}\n', encoding="utf-8")
    assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


def test_jsonl_non_object_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("[1,2,3]\n", encoding="utf-8")
    with pytest.raises(JsonlError):
        read_jsonl(path)


# -- graph stores ---------------------------------------------------------------


def test_bolt_requires_uri():
    with pytest.raises(ConfigError):
        open_graph_store(PipelineConfig(graph_backend="bolt"))


def test_bolt_statements_are_parameterized():
    node = Node(id="hafez", name="Hafez", depth=0, gloss="poet")
    statement, params = BoltGraphStore.node_statement(node)
    assert "$id" in statement and "MERGE" in statement
    assert params == {"id": "hafez", "name": "Hafez", "depth": 0, "gloss": "poet"}
    assert "Hafez" not in statement  # values travel as parameters only

    edge = Edge(head="hafez", relation="born_in", tail="shiraz")
    statement, params = BoltGraphStore.edge_statement(edge)
    assert "$head" in statement and "$tail" in statement and "$label" in statement
    assert params == {"head": "hafez", "tail": "shiraz", "label": "born_in"}


def test_bolt_roundtrip_against_live_server():
    import os

    uri = os.environ.get("NEO4J_URI")
    try:
        import neo4j  # noqa: F401
    except ImportError:
        pytest.skip("neo4j driver not installed")
    if not uri:
        pytest.skip("no NEO4J_URI configured")
    graph = _fixture_graph(3)
    store = open_graph_store(build_config({"graph_backend": "bolt"}))
    try:
        mirror_graph(store, graph)
        rows = store._run(
            "MATCH (h:Topic)-[r:RELATES]->(t:Topic) WHERE h.id IN $ids "
            "RETURN h.id AS head, r.label AS label, t.id AS tail",
            {"ids": sorted(graph.nodes)},
        )
        mirrored = sorted((r["head"], r["label"], r["tail"]) for r in rows)
        assert mirrored == [(e.head, e.relation, e.tail) for e in graph.sorted_edges()]
    finally:
        store.close()
