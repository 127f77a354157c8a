"""Directed labeled graph types and the pure operations used by every stage.

Node identity is keyed on the normalized name; the display name keeps its
first-seen casing. All iteration orders are sorted so runs against the mock
backend reproduce byte-for-byte.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import GraphError

RELATION_RE = re.compile(r"^[a-z0-9_]+$")

_LEADING_ARTICLES = ("the", "a", "an")


@functools.lru_cache(maxsize=1 << 16)
def normalize_name(raw: str) -> str:
    """Canonical key for a term: NFKC, lowercase, collapsed whitespace,
    leading articles stripped, terminal plural "s" dropped when the singular
    form keeps at least 3 characters and does not itself end in "s" or
    whitespace ("cells" -> "cell", "class" stays).

    Idempotent: a key normalizes to itself. Memoized, since ``curate`` and
    the embedding adapter key every (candidate, node) pair on it.
    """
    text = raw
    while True:
        folded = unicodedata.normalize("NFKC", text).lower()
        if folded == text:
            break
        text = folded
    words = text.split()
    while len(words) > 1 and words[0] in _LEADING_ARTICLES:
        words = words[1:]
    text = " ".join(words)
    if len(text) - 1 >= 3 and text[-1] == "s" and text[-2] != "s" and not text[-2].isspace():
        text = text[:-1]
    return text


@dataclass
class Topic:
    """User-supplied subject for a build, with an optional free-form prompt."""

    name: str
    optional_prompt: str | None = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("topic name must be non-empty")
        self.name = self.name.strip()


@dataclass
class Node:
    """A graph node; ``id`` is the normalized name, ``name`` the display name."""

    id: str
    name: str
    depth: int
    gloss: str | None = None
    provenance: list[str] = field(default_factory=list)
    parametric_fallback: bool = False
    retrieval_weights: list[float] = field(default_factory=list)
    gamma_failed: bool = False

    @property
    def normalized_name(self) -> str:
        return self.id


@dataclass(frozen=True)
class Edge:
    head: str
    relation: str
    tail: str

    def __post_init__(self) -> None:
        if not RELATION_RE.match(self.relation):
            raise GraphError(f"relation {self.relation!r} is not lowercase_underscore")


@dataclass
class PathSample:
    """A directed path; ``node_ids`` always follow edge direction. The items
    of both orientations share it: ``McqItem.orientation`` holds theirs."""

    node_ids: list[str]
    relations: list[str]

    def __post_init__(self) -> None:
        if len(self.node_ids) != len(self.relations) + 1:
            raise GraphError("path must have exactly one more node than relations")

    @property
    def hops(self) -> int:
        return len(self.relations)


@dataclass(frozen=True)
class Triple:
    """Candidate (head, relation, tail) fact extracted from a gloss."""

    head: str
    relation: str
    tail: str

    def __post_init__(self) -> None:
        if not (self.head.strip() and self.relation.strip() and self.tail.strip()):
            raise ValueError("triple fields must be non-empty")
        if not RELATION_RE.match(self.relation):
            raise ValueError(f"relation {self.relation!r} is not lowercase_underscore")

    def verbalize(self) -> str:
        return f"{self.head} {self.relation.replace('_', ' ')} {self.tail}."

    def key(self) -> str:
        return f"{self.head}|{self.relation}|{self.tail}"


class KnowledgeGraph:
    """Single-writer directed property graph; readers may share it freely."""

    def __init__(self, seed_name: str):
        seed_norm = normalize_name(seed_name)
        if not seed_norm:
            raise GraphError("seed name normalizes to the empty string")
        self.nodes: dict[str, Node] = {}
        self.edges: set[Edge] = set()
        self.seed_id = seed_norm
        self.add_node(seed_name, depth=0)

    def add_node(self, name: str, depth: int) -> Node:
        """Insert a node; returns the existing one when the name is taken."""
        norm = normalize_name(name)
        if not norm:
            raise GraphError(f"name {name!r} normalizes to the empty string")
        if norm not in self.nodes:
            self.nodes[norm] = Node(id=norm, name=name.strip(), depth=depth)
        return self.nodes[norm]

    def add_edge(self, head_id: str, relation: str, tail_id: str) -> Edge:
        if head_id not in self.nodes:
            raise GraphError(f"edge head {head_id!r} not in graph")
        if tail_id not in self.nodes:
            raise GraphError(f"edge tail {tail_id!r} not in graph")
        edge = Edge(head=head_id, relation=relation, tail=tail_id)
        self.edges.add(edge)
        return edge

    def sorted_nodes(self) -> list[Node]:
        return [self.nodes[k] for k in sorted(self.nodes)]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: (e.head, e.relation, e.tail))

    def adjacency(self) -> dict[str, list[tuple[str, str]]]:
        """head id -> [(tail id, relation)] sorted for deterministic walks."""
        adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid in self.nodes}
        for edge in self.edges:
            adj[edge.head].append((edge.tail, edge.relation))
        for nid in adj:
            adj[nid].sort()
        return adj

    def check_invariants(self) -> None:
        """Raise GraphError when a structural invariant is broken."""
        for key, node in self.nodes.items():
            if key != node.id:
                raise GraphError(f"node {node.id!r} stored under key {key!r}")
            if node.id != normalize_name(node.name):
                raise GraphError(f"node {node.id}: stale normalized name")
        for edge in self.edges:
            if edge.head not in self.nodes or edge.tail not in self.nodes:
                raise GraphError(f"dangling edge {edge}")
        if self.nodes[self.seed_id].depth != 0:
            raise GraphError("seed node depth must be 0")


def add_curated(graph: KnowledgeGraph, parent_id: str, curated: list[Triple]) -> KnowledgeGraph:
    """Attach curated triples under ``parent_id``.

    New tails become depth ``parent.depth + 1`` nodes; tails whose normalized
    name already exists gain only the edge (idempotent on duplicates). Triple
    heads must resolve to the parent or another existing node.
    """
    parent = graph.nodes.get(parent_id)
    if parent is None:
        raise GraphError(f"unknown parent {parent_id!r}")
    for triple in curated:
        head_norm = normalize_name(triple.head)
        if head_norm == parent.normalized_name:
            head_node = parent
        elif head_norm in graph.nodes:
            head_node = graph.nodes[head_norm]
        else:
            raise GraphError(
                f"triple head {triple.head!r} is neither the parent nor an existing node"
            )
        child = graph.add_node(triple.tail, depth=parent.depth + 1)
        graph.add_edge(head_node.id, triple.relation, child.id)
    return graph


def enumerate_paths(graph: KnowledgeGraph, v0: str, d: int) -> list[PathSample]:
    """All simple directed paths of exactly ``d`` edges starting at ``v0``,
    ordered lexicographically by (node id sequence, relation sequence).
    """
    if v0 not in graph.nodes:
        raise GraphError(f"unknown node {v0!r}")
    if d < 1:
        raise GraphError("path length must be at least 1")
    adj = graph.adjacency()
    out: list[PathSample] = []

    def walk(nodes: list[str], relations: list[str]) -> None:
        if len(relations) == d:
            out.append(PathSample(list(nodes), list(relations)))
            return
        for tail, relation in adj[nodes[-1]]:
            if tail in nodes:
                continue
            nodes.append(tail)
            relations.append(relation)
            walk(nodes, relations)
            nodes.pop()
            relations.pop()

    walk([v0], [])
    out.sort(key=lambda p: (p.node_ids, p.relations))
    return out

