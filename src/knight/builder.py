"""Breadth-first, depth-bounded graph construction combining retrieval,
gloss synthesis, triple extraction, and curation.

The build maps one FIFO queue of (node id, name, parent name, depth)
entries through ``ChatGateway.map`` from the seed. The per-node stage
(retrieve, gloss, gamma gate, extract, dedup) reads only its entry, never
the graph, so stages run concurrently. Each finished stage is applied on
the caller's thread in queue order (gloss, curate, attach), and the
children it adds join the queue at once, while the rest of their parent's
level is in flight. The queue is breadth-first, so the graph equals a
sequential FIFO run's at any ``max_inflight``. On a ``GatewayError`` every
stage before the failed one is applied, the error goes to
``BuildReport.aborted_reason``, and nothing after it is: a failed call
costs the rest of the queue.

Depth rule: a node at ``d_max`` can get no children, so it is glossed but
not expanded. It gets its title check, retrieval, gloss, provenance and
gamma gate, and no triple extraction, dedup or curation. A gloss that fails
the gamma gate is not expanded either. Relations are therefore only ever
extracted from nodes above ``d_max``: with a network backend, a leaf's
reply can no longer add a cross-link between shallower nodes. With the
mock backend every triple's head is the node being expanded, so a leaf
only loses edges out of itself; it is first reached at hop ``d_max``, so
no path of at most ``d_max`` hops from the seed could use them.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass, field

from .adapters import AdapterSuite
from .config import PipelineConfig
from .curation import curate
from .errors import ExtractionError
from .gateway import ChatGateway
from .graph import KnowledgeGraph, Topic, Triple, add_curated
from .retrieval import WikiSource, retrieve_evidence
from .synthesis import Gloss, dedup_triples, extract_triples, gate_gloss, generate_gloss

log = logging.getLogger(__name__)


@dataclass
class BuildReport:
    nodes_added: int = 0
    edges_added: int = 0
    glosses_rejected_by_gamma: int = 0
    triples_deduped: int = 0
    curation_prune_rate: float = 0.0
    per_depth_counts: dict[int, int] = field(default_factory=dict)
    aborted_reason: str | None = None
    candidates_seen: int = 0
    candidates_rejected: int = 0

    def to_dict(self) -> dict:
        return {
            "nodes_added": self.nodes_added,
            "edges_added": self.edges_added,
            "glosses_rejected_by_gamma": self.glosses_rejected_by_gamma,
            "triples_deduped": self.triples_deduped,
            "curation_prune_rate": self.curation_prune_rate,
            "per_depth_counts": {str(k): v for k, v in sorted(self.per_depth_counts.items())},
            "aborted_reason": self.aborted_reason,
        }


@dataclass
class RejectedCandidate:
    parent: str
    head: str
    relation: str
    tail: str
    reason: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Stage:
    """Pure per-node computation results, safe to produce concurrently."""

    gloss: Gloss | None = None
    gamma_failed: bool = False
    triples: list[Triple] = field(default_factory=list)
    dedup_dropped: int = 0


def _node_stage(
    term: str,
    parent_term: str | None,
    depth: int,
    topic_hint: str,
    config: PipelineConfig,
    gateway: ChatGateway,
    source: WikiSource,
) -> _Stage:
    stage = _Stage()
    try:
        hint = parent_term or topic_hint
        retrieval = retrieve_evidence(term, source, gateway, config, context_hint=hint)
        stage.gloss = generate_gloss(gateway, term, retrieval, config, parent_term)
        stage.gamma_failed = not gate_gloss(stage.gloss, retrieval.texts(), config.eta_overlap)
        if stage.gamma_failed or depth >= config.d_max:
            return stage
        raw = extract_triples(gateway, stage.gloss, config)
        deduped = dedup_triples(raw, config.lambda_max)
        stage.triples = deduped
        stage.dedup_dropped = len(raw) - len(deduped)
    except ExtractionError as exc:
        log.warning("stage for %r degraded to zero children: %s: %s", term, type(exc).__name__, exc)
    return stage


def _apply_stage(
    graph: KnowledgeGraph,
    node_id: str,
    stage: _Stage,
    config: PipelineConfig,
    adapters: AdapterSuite,
    report: BuildReport,
    rejects: list[RejectedCandidate] | None,
) -> list[tuple[str, str, str, int]]:
    """Serial part of one expansion: attach the gloss and its gamma flag,
    curate, mutate the graph, and return the (child id, name, parent name,
    depth) entries of the nodes it added. A node at ``d_max`` or one whose
    gloss failed the gate brings no triples, so it is neither curated nor
    given children."""
    node = graph.nodes[node_id]
    if stage.gloss is not None:
        node.gloss = stage.gloss.text
        node.provenance = list(stage.gloss.supported_by)
        node.parametric_fallback = stage.gloss.parametric_fallback
        node.retrieval_weights = list(stage.gloss.mixture)
    if stage.gamma_failed:
        report.glosses_rejected_by_gamma += 1
        node.gamma_failed = True
    report.triples_deduped += stage.dedup_dropped
    if not stage.triples:
        return []

    outcome = curate(graph, node_id, stage.triples, adapters, config)
    report.candidates_seen += len(stage.triples)
    report.candidates_rejected += len(outcome.rejected)
    if rejects is not None:
        rejects.extend(
            RejectedCandidate(node.name, triple.head, triple.relation, triple.tail, reason)
            for triple, reason in outcome.rejected
        )

    selected = outcome.accepted[: config.max_branches]
    if not selected:
        return []

    known = len(graph.nodes)
    add_curated(graph, node_id, selected)
    # Nodes are stored in insertion order, so the new children come last.
    return [
        (child.id, child.name, node.name, child.depth)
        for child in list(graph.nodes.values())[known:]
    ]


def build_kg(
    topic: Topic,
    config: PipelineConfig,
    gateway: ChatGateway,
    source: WikiSource,
    adapters: AdapterSuite,
    rejects: list[RejectedCandidate] | None = None,
) -> tuple[KnowledgeGraph, BuildReport]:
    """Construct the depth-bounded graph for ``topic``.

    A backend failure stops expansion after every stage before it in queue
    order is applied and is recorded on the report; the partial graph is
    still returned.
    """
    graph = KnowledgeGraph(topic.name)
    report = BuildReport()
    topic_hint = topic.optional_prompt or "general knowledge"

    _, error = gateway.map(
        lambda entry: _node_stage(*entry[1:], topic_hint, config, gateway, source),
        [(graph.seed_id, graph.nodes[graph.seed_id].name, None, 0)],
        then=lambda entry, stage: _apply_stage(
            graph, entry[0], stage, config, adapters, report, rejects
        ),
    )
    if error is not None:
        report.aborted_reason = f"{type(error).__name__}: {error}"
        log.error("build aborted: %s", report.aborted_reason)

    report.nodes_added = len(graph.nodes) - 1
    report.edges_added = len(graph.edges)
    report.per_depth_counts = dict(Counter(n.depth for n in graph.nodes.values()))
    if report.candidates_seen:
        report.curation_prune_rate = report.candidates_rejected / report.candidates_seen
    graph.check_invariants()
    return graph, report
