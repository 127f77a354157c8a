"""Breadth-first, depth-bounded graph construction combining retrieval,
gloss synthesis, triple extraction, and curation.

The build maps one FIFO queue of sibling sets through ``ChatGateway.map``,
starting from the seed alone. A sibling set is up to ``BATCH`` of the
children one expansion added, with their shared parent name and depth. Its
stage makes numbered-slot calls, one slot per sibling: title-check rounds
(``choose_titles``), one ``gloss`` call with the parent line as shared
head, and one ``triples`` call for the siblings above ``d_max`` whose gloss
passed the gamma gate. Retrieval, the gamma gate and dedup stay per
sibling. A stage reads only node names, never the graph, so stages run
concurrently. Each finished stage is applied on the caller's thread in
queue order, sibling by sibling: the node's gloss, and its provenance,
fallback flag and retrieval weights read from its ``RetrievalResult``, then
curation and attachment. The children each sibling adds join the queue at
once as a new set, while the rest of their parent's level is in flight.
Nodes are thus applied in the order of a per-node breadth-first run, and
the graph is the same at any ``max_inflight``.

A reply block that is missing or unusable costs its own sibling only: a
title block reads as "no"; a gloss block leaves the node unglossed and
unexpanded, with a warning; a triples block is an ``ExtractionError``, so
the node gets zero children. On a ``GatewayError`` every set before the
failed one is applied, the error goes to ``BuildReport.aborted_reason``,
and nothing after it is: a failed call costs its set and the rest of the
queue.

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
from typing import NamedTuple

from .adapters import AdapterSuite
from .config import PipelineConfig
from .curation import curate
from .errors import ExtractionError
from .gateway import ChatGateway
from .graph import KnowledgeGraph, Node, Topic, Triple, add_curated
from .prompts import batches
from .retrieval import RetrievalResult, WikiSource, choose_titles, retrieve_evidence
from .synthesis import dedup_triples, extract_triples, gate_gloss, generate_gloss

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
        doc = asdict(self)
        del doc["candidates_seen"], doc["candidates_rejected"]
        doc["per_depth_counts"] = {str(k): v for k, v in sorted(self.per_depth_counts.items())}
        return doc


@dataclass
class RejectedCandidate:
    parent: str
    head: str
    relation: str
    tail: str
    reason: str

    def to_dict(self) -> dict:
        return asdict(self)


class _Siblings(NamedTuple):
    """A queue entry: up to ``BATCH`` nodes one expansion added. A stage
    reads only their names, which never change."""

    nodes: list[Node]
    parent: str | None
    depth: int


@dataclass
class _Stage:
    """Pure per-node computation results, safe to produce concurrently. A
    node whose gloss block failed has no gloss."""

    retrieval: RetrievalResult
    gloss: str | None
    gamma_failed: bool = False
    triples: list[Triple] = field(default_factory=list)
    dedup_dropped: int = 0


def _set_stage(
    siblings: _Siblings,
    topic_hint: str | None,
    config: PipelineConfig,
    gateway: ChatGateway,
    source: WikiSource,
) -> list[_Stage]:
    names, parent = [node.name for node in siblings.nodes], siblings.parent
    titles = choose_titles(names, source, gateway, config, parent or topic_hint)
    retrievals = [
        retrieve_evidence(name, title, source, config) for name, title in zip(names, titles)
    ]
    glosses = generate_gloss(
        gateway, [(name, r.texts()) for name, r in zip(names, retrievals)], config, parent
    )
    stages = []
    for name, retrieval, gloss in zip(names, retrievals, glosses):
        if isinstance(gloss, ExtractionError):
            log.warning("gloss for %r failed, node left unglossed: %s", name, gloss)
            stages.append(_Stage(retrieval, None))
            continue
        passed = gate_gloss(gloss, retrieval.texts(), config.eta_overlap)
        stages.append(_Stage(retrieval, gloss, not passed))
    expand = [
        (name, stage) for name, stage in zip(names, stages)
        if stage.gloss is not None and not stage.gamma_failed
    ]
    if not expand or siblings.depth >= config.d_max:
        return stages
    extracted = extract_triples(gateway, [stage.gloss for _, stage in expand], config)
    for (name, stage), raw in zip(expand, extracted):
        if isinstance(raw, ExtractionError):
            log.warning("stage for %r degraded to zero children: %s", name, raw)
            continue
        stage.triples = dedup_triples(raw, config.lambda_max)
        stage.dedup_dropped = len(raw) - len(stage.triples)
    return stages


def _apply_stage(
    graph: KnowledgeGraph,
    node: Node,
    stage: _Stage,
    config: PipelineConfig,
    adapters: AdapterSuite,
    report: BuildReport,
    rejects: list[RejectedCandidate] | None,
) -> list[Node]:
    """Serial part of one expansion: attach the gloss, its evidence and its
    gamma flag, curate, mutate the graph, and return the nodes it added. A
    node at ``d_max`` or one whose gloss failed or failed the gate brings
    no triples, so it is neither curated nor given children."""
    retrieval = stage.retrieval
    node.gloss = stage.gloss
    node.provenance = retrieval.ids()
    node.parametric_fallback = retrieval.fallback
    node.retrieval_weights = retrieval.weights()
    node.gamma_failed = stage.gamma_failed
    report.glosses_rejected_by_gamma += stage.gamma_failed
    report.triples_deduped += stage.dedup_dropped
    if not stage.triples:
        return []

    outcome = curate(graph, node.id, stage.triples, adapters, config)
    report.candidates_seen += len(stage.triples)
    report.candidates_rejected += len(outcome.rejected)
    if rejects is not None:
        rejects.extend(
            RejectedCandidate(node.name, triple.head, triple.relation, triple.tail, reason)
            for triple, reason in outcome.rejected
        )

    known = len(graph.nodes)
    add_curated(graph, node.id, outcome.accepted[: config.max_branches])
    # Nodes are stored in insertion order, so the new children come last.
    return list(graph.nodes.values())[known:]


def _apply_set(
    graph: KnowledgeGraph,
    siblings: _Siblings,
    stages: list[_Stage],
    config: PipelineConfig,
    adapters: AdapterSuite,
    report: BuildReport,
    rejects: list[RejectedCandidate] | None,
) -> list[_Siblings]:
    """Apply each sibling's stage in order; each sibling's children become
    new sets of up to ``BATCH``."""
    sets = []
    for node, stage in zip(siblings.nodes, stages):
        children = _apply_stage(graph, node, stage, config, adapters, report, rejects)
        sets += [_Siblings(run, node.name, siblings.depth + 1) for run in batches(children)]
    return sets


def build_kg(
    topic: Topic,
    config: PipelineConfig,
    gateway: ChatGateway,
    source: WikiSource,
    adapters: AdapterSuite,
    rejects: list[RejectedCandidate] | None = None,
) -> tuple[KnowledgeGraph, BuildReport]:
    """Construct the depth-bounded graph for ``topic``.

    A backend failure stops expansion after every sibling set before it in
    queue order is applied and is recorded on the report; the partial graph
    is still returned.
    """
    graph = KnowledgeGraph(topic.name)
    report = BuildReport()

    _, error = gateway.map(
        lambda siblings: _set_stage(siblings, topic.optional_prompt, config, gateway, source),
        [_Siblings([graph.nodes[graph.seed_id]], None, 0)],
        then=lambda siblings, stages: _apply_set(
            graph, siblings, stages, config, adapters, report, rejects
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
