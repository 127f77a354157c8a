"""Persistence: canonical JSON graph snapshots, JSONL datasets, and the
optional Neo4j (Bolt) mirror of the graph. The mirror is write-only: the
program never reads a graph back from it, and path enumeration stays in
``graph.enumerate_paths``.

All JSON is written with sorted keys and no insignificant whitespace so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from .builder import BuildReport
from .config import PipelineConfig
from .errors import ConfigError, JsonlError, SnapshotFormatError, SnapshotVersionError, StoreError
from .graph import Edge, KnowledgeGraph, Node, PathSample
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
    """Build the snapshot payload. It holds no timing, so repeated runs of a
    deterministic pipeline stay byte-identical."""
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "topic": topic,
        "config": dict(config_echo or {}),
        "seed_id": graph.seed_id,
        "nodes": [
            {
                "id": n.id,
                "name": n.name,
                "depth": n.depth,
                "gloss": n.gloss,
                "provenance": list(n.provenance),
                "parametric_fallback": n.parametric_fallback,
                "retrieval_weights": list(n.retrieval_weights),
                "gamma_failed": n.gamma_failed,
            }
            for n in graph.sorted_nodes()
        ],
        "edges": [
            {"head": e.head, "relation": e.relation, "tail": e.tail}
            for e in graph.sorted_edges()
        ],
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

    by_id = {n["id"]: n for n in nodes}
    if seed_id not in by_id:
        raise SnapshotFormatError(f"seed {seed_id!r} not among nodes")
    graph = KnowledgeGraph(by_id[seed_id]["name"])
    try:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"snapshot node/edge malformed: {exc}") from exc
    return graph


# -- JSONL datasets -----------------------------------------------------------


def write_jsonl(records: Iterable[Mapping[str, Any]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    out: list[dict] = []
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
            out.append(doc)
    return out


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
    triples = record.get("path") or []
    if triples:
        node_ids = [triples[0][0]] + [t[2] for t in triples]
        relations = [t[1] for t in triples]
        path = PathSample(node_ids, relations, record.get("orientation", "forward"))
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


# -- graph stores -------------------------------------------------------------


class BoltGraphStore:
    """Write-only Neo4j mirror speaking parameterized Cypher over Bolt.

    Statement construction is separated from execution so the Cypher surface
    is testable without a server; a live run needs the optional ``neo4j``
    driver and a reachable instance.
    """

    NODE_STATEMENT = (
        "MERGE (n:Topic {id: $id}) "
        "SET n.name = $name, n.depth = $depth, n.gloss = $gloss"
    )
    EDGE_STATEMENT = (
        "MATCH (h:Topic {id: $head}), (t:Topic {id: $tail}) "
        "MERGE (h)-[r:RELATES {label: $label}]->(t)"
    )

    def __init__(self, uri: str, user: str, password: str):
        if not uri:
            raise ConfigError("bolt backend requires NEO4J_URI (or neo4j_uri in the config file)")
        self.uri = uri
        self.user = user
        self.password = password
        self._driver = None

    @classmethod
    def node_statement(cls, node: Node) -> tuple[str, dict]:
        return cls.NODE_STATEMENT, {
            "id": node.id,
            "name": node.name,
            "depth": node.depth,
            "gloss": node.gloss,
        }

    @classmethod
    def edge_statement(cls, edge: Edge) -> tuple[str, dict]:
        return cls.EDGE_STATEMENT, {
            "head": edge.head,
            "tail": edge.tail,
            "label": edge.relation,
        }

    def open(self) -> None:
        try:
            from neo4j import GraphDatabase
        except ImportError as exc:
            raise StoreError(
                "the bolt backend needs the optional neo4j driver "
                "(pip install 'knight[bolt]')"
            ) from exc
        try:
            self._driver = GraphDatabase.driver(self.uri, auth=(self.user, self.password))
            self._driver.verify_connectivity()
        except Exception as exc:
            raise StoreError(f"cannot open bolt store at {self.uri}: {exc}") from exc

    def close(self) -> None:
        if self._driver is not None:
            self._driver.close()
            self._driver = None

    def _run(self, statement: str, params: dict) -> list:
        if self._driver is None:
            raise StoreError("store is not open")
        with self._driver.session() as session:
            return list(session.run(statement, **params))

    def create_node(self, node: Node) -> None:
        self._run(*self.node_statement(node))

    def create_edge(self, edge: Edge) -> None:
        self._run(*self.edge_statement(edge))


def open_graph_store(config: PipelineConfig) -> BoltGraphStore | None:
    """The opened Neo4j mirror for the ``bolt`` backend; None for ``memory``,
    which keeps the graph in process only."""
    if config.graph_backend != "bolt":
        return None
    store = BoltGraphStore(config.neo4j_uri, config.neo4j_user, config.neo4j_pass)
    store.open()
    return store


def mirror_graph(store: BoltGraphStore, graph: KnowledgeGraph) -> None:
    """Write every node then every edge of ``graph`` into ``store``."""
    for node in graph.sorted_nodes():
        store.create_node(node)
    for edge in graph.sorted_edges():
        store.create_edge(edge)
