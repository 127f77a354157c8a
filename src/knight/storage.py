"""Persistence: canonical JSON graph snapshots, JSONL datasets, and the
optional Neo4j (Bolt) mirror of the graph. The mirror is write-only: the
program never reads a graph back from it, and path enumeration stays in
``graph.enumerate_paths``. It is one context manager, ``graph_mirror``: it
opens and checks the driver on entry, before the first LLM call, writes the
whole graph in one session per mirror, raises a driver error as
``StoreError`` and closes the driver on exit.

All JSON is written with sorted keys and no insignificant whitespace so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .builder import BuildReport
from .config import PipelineConfig
from .errors import (
    ConfigError, GraphError, JsonlError, SnapshotFormatError, SnapshotVersionError, StoreError,
)
from .graph import KnowledgeGraph, PathSample
from .qgen import McqItem
from .validation import ValidationReport

SNAPSHOT_SCHEMA_VERSION = 1


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# -- snapshots ----------------------------------------------------------------


def snapshot_document(
    graph: KnowledgeGraph,
    topic: str = "",
    config_echo: Mapping[str, Any] | None = None,
    report: BuildReport | None = None,
) -> dict:
    """Build the snapshot payload. Node and edge records are the ``Node`` and
    ``Edge`` fields. It holds no timing, so repeated runs of a deterministic
    pipeline stay byte-identical."""
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "topic": topic,
        "config": dict(config_echo or {}),
        "seed_id": graph.seed_id,
        "nodes": [asdict(n) for n in graph.sorted_nodes()],
        "edges": [asdict(e) for e in graph.sorted_edges()],
        "report": report.to_dict() if report else None,
    }


def save_snapshot(
    graph: KnowledgeGraph,
    path: str | Path,
    topic: str = "",
    config_echo: Mapping[str, Any] | None = None,
    report: BuildReport | None = None,
) -> None:
    doc = snapshot_document(graph, topic, config_echo, report)
    Path(path).write_text(canonical_json(doc) + "\n", encoding="utf-8")


def load_snapshot(path: str | Path) -> KnowledgeGraph:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotFormatError("snapshot root must be an object")
    version = doc.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotVersionError(f"unsupported snapshot version {version!r}")
    try:
        nodes = doc["nodes"]
        edges = doc["edges"]
        seed_id = doc["seed_id"]
    except KeyError as exc:
        raise SnapshotFormatError(f"snapshot missing field {exc}") from exc

    try:
        by_id = {n["id"]: n for n in nodes}
        if seed_id not in by_id:
            raise SnapshotFormatError(f"seed {seed_id!r} not among nodes")
        graph = KnowledgeGraph(by_id[seed_id]["name"])
        for raw in nodes:
            if raw["id"] == seed_id:
                node = graph.nodes[seed_id]
            else:
                node = graph.add_node(raw["name"], depth=int(raw["depth"]))
            node.gloss = raw.get("gloss")
            node.provenance = list(raw.get("provenance", []))
            node.parametric_fallback = bool(raw.get("parametric_fallback", False))
            node.retrieval_weights = [float(w) for w in raw.get("retrieval_weights", [])]
            node.gamma_failed = bool(raw.get("gamma_failed", False))
        for raw in edges:
            graph.add_edge(raw["head"], raw["relation"], raw["tail"])
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise SnapshotFormatError(f"snapshot node/edge malformed: {exc}") from exc
    return graph


# -- JSONL datasets -----------------------------------------------------------


def write_jsonl(records: Iterable[Mapping[str, Any]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


def read_jsonl(path: str | Path, parse: Callable[[dict], Any] | None = None) -> list:
    out: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlError(f"malformed JSON ({exc.msg})", line_number=lineno) from exc
            if not isinstance(doc, dict):
                raise JsonlError("record is not an object", line_number=lineno)
            if parse is not None:
                try:
                    doc = parse(doc)
                except (AttributeError, LookupError, TypeError, ValueError) as exc:
                    raise JsonlError(f"malformed record ({exc!r})", line_number=lineno) from exc
            out.append(doc)
    return out


def read_items(path: str | Path) -> list[McqItem]:
    """The dataset's items. A line that is not a JSON object, or whose object
    ``record_to_item`` refuses, raises ``JsonlError`` naming the line."""
    return read_jsonl(path, record_to_item)


def item_to_record(item: McqItem) -> dict:
    path_triples: list[list[str]] = []
    if item.path is not None:
        for head, relation, tail in zip(
            item.path.node_ids, item.path.relations, item.path.node_ids[1:]
        ):
            path_triples.append([head, relation, tail])
    return {
        "id": item.id,
        "topic": item.topic,
        "level": item.level,
        "orientation": item.orientation,
        "path": path_triples,
        "question": item.question,
        "options": dict(item.options),
        "answer_key": item.answer_key,
        "source_context": item.source_context,
        "validation": item.flags.to_dict() if item.flags is not None else None,
        "provenance": dict(item.provenance),
    }


def record_to_item(record: Mapping[str, Any]) -> McqItem:
    path = None
    if hops := record.get("path"):
        node_ids = [hops[0][0]]
        for hop in hops:
            if not isinstance(hop, list) or len(hop) != 3 or hop[0] != node_ids[-1]:
                raise ValueError(f"path hop {hop!r} is not [{node_ids[-1]!r}, relation, tail]")
            node_ids.append(hop[2])
        path = PathSample(node_ids, [hop[1] for hop in hops])
    flags = None
    if record.get("validation") is not None:
        flags = ValidationReport.from_dict(record["validation"])
    return McqItem(
        id=record["id"],
        question=record["question"],
        options=dict(record["options"]),
        answer_key=record["answer_key"],
        topic=record.get("topic", ""),
        level=int(record["level"]),
        orientation=record.get("orientation", "forward"),
        path=path,
        source_context=record.get("source_context", ""),
        flags=flags,
        provenance=dict(record.get("provenance", {})),
    )


# -- Neo4j mirror -------------------------------------------------------------

NODE_STATEMENT = (
    "MERGE (n:Topic {id: $id}) "
    "SET n.name = $name, n.depth = $depth, n.gloss = $gloss"
)
EDGE_STATEMENT = (
    "MATCH (h:Topic {id: $head}), (t:Topic {id: $tail}) "
    "MERGE (h)-[r:RELATES {label: $label}]->(t)"
)


@contextlib.contextmanager
def graph_mirror(config: PipelineConfig) -> Iterator[Callable[[KnowledgeGraph], None] | None]:
    """Yields None for ``memory``. For ``bolt`` it opens and checks the driver
    (``ConfigError`` without a URI, ``StoreError`` without a driver or a
    connection) and yields ``mirror(graph)``, which writes every node, then
    every edge, sorted, in one session, raising a driver error as
    ``StoreError``. The driver is closed on every path."""
    if config.graph_backend != "bolt":
        yield None
        return
    uri = config.neo4j_uri
    if not uri:
        raise ConfigError("bolt backend requires NEO4J_URI (or neo4j_uri in the config file)")
    try:
        from neo4j import GraphDatabase
    except ImportError as exc:
        raise StoreError(
            "the bolt backend needs the optional neo4j driver (pip install 'knight[bolt]')"
        ) from exc
    driver = None
    try:
        driver = GraphDatabase.driver(uri, auth=(config.neo4j_user, config.neo4j_pass))
        driver.verify_connectivity()
    except Exception as exc:
        if driver is not None:
            driver.close()
        raise StoreError(f"cannot open bolt store at {uri}: {exc}") from exc

    def mirror(graph: KnowledgeGraph) -> None:
        try:
            with driver.session() as session:
                for node in graph.sorted_nodes():
                    session.run(NODE_STATEMENT, id=node.id, name=node.name, depth=node.depth,
                                gloss=node.gloss)
                for edge in graph.sorted_edges():
                    session.run(EDGE_STATEMENT, head=edge.head, tail=edge.tail,
                                label=edge.relation)
        except Exception as exc:
            raise StoreError(f"cannot write to bolt store at {uri}: {exc}") from exc

    try:
        yield mirror
    finally:
        driver.close()
