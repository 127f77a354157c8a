"""Breadth-first, depth-bounded graph construction combining retrieval,
gloss synthesis, triple extraction, and curation.

The build runs one level at a time, starting from the seed alone, up to
``d_max``. A level is its nodes in the order they were added, each with its
own parent's name. First ``choose_titles`` searches every node of the level
and asks its title-check rounds, one call per round of up to
``TITLE_BATCH`` nodes, each slot under its own parent, and gives each node
its ``RetrievalResult`` from ``retrieve_evidence``, fetched, above bound 1,
while the round that approves its title waits on its calls. Then
``prompts.batches`` cuts the level into runs of up to ``BATCH`` nodes, so a
run may span several parents, and ``ChatGateway.map`` maps one stage over
the runs. A stage makes numbered-slot calls, one slot per node, each slot
under its own parent: one ``gloss`` call, and one ``triples`` call for the
nodes above ``d_max`` whose gloss passed the gamma gate. The gamma gate and
dedup stay per node. A stage reads only node names and evidence, never the
graph, so the stages of a level run concurrently. Once
the map returns, each finished stage is applied on the caller's thread in
run order, node by node: the node's gloss, and its provenance, fallback
flag and retrieval weights read from its ``RetrievalResult``, then curation
and attachment. The children the nodes add, in the order they were added,
are the next level. Nodes are thus applied in the order of a per-node
breadth-first run, and the graph is the same at any ``max_inflight``,
``BATCH`` and ``TITLE_BATCH``.

A reply block that is missing or unusable costs its own node only: a
title block reads as "no"; a gloss block leaves the node unglossed and
unexpanded, with a warning; a triples block is an ``ExtractionError``, so
the node gets zero children. A ``GatewayError`` ends the build and goes to
``BuildReport.aborted_reason``. From a title check it costs its whole level,
whose nodes stay unglossed; from a stage, the runs of the level before the
failed one are applied and nothing after them is.

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

from . import prompts
from .adapters import AdapterSuite
from .config import PipelineConfig
from .curation import curate
from .errors import ExtractionError, GatewayError, abort_label
from .gateway import ChatGateway
from .graph import KnowledgeGraph, Node, Topic, Triple, add_curated
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


@dataclass
class _Stage:
    """Pure per-node computation results, safe to produce concurrently. A
    node whose gloss block failed has no gloss."""

    retrieval: RetrievalResult
    gloss: str | None
    gamma_failed: bool = False
    triples: list[Triple] = field(default_factory=list)
    dedup_dropped: int = 0


def _run_stage(
    run: list[tuple[Node, str | None, RetrievalResult]],
    depth: int,
    config: PipelineConfig,
    gateway: ChatGateway,
) -> list[_Stage]:
    """The calls of one run of the level at ``depth``, each node given with
    its parent and its evidence, already fetched: one ``gloss`` call and,
    above ``d_max``, one ``triples`` call, each slot under its own node's
    parent."""
    names = [node.name for node, _, _ in run]
    parents = [parent for _, parent, _ in run]
    retrievals = [retrieval for _, _, retrieval in run]
    glosses = generate_gloss(
        gateway,
        [(name, parent, r.texts()) for name, parent, r in zip(names, parents, retrievals)],
        config,
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
    if not expand or depth >= config.d_max:
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


def build_kg(
    topic: Topic,
    config: PipelineConfig,
    gateway: ChatGateway,
    source: WikiSource,
    adapters: AdapterSuite,
    rejects: list[RejectedCandidate] | None = None,
) -> tuple[KnowledgeGraph, BuildReport]:
    """Construct the depth-bounded graph for ``topic``.

    A backend failure stops expansion and is recorded on the report; the
    partial graph is still returned.
    """
    graph = KnowledgeGraph(topic.name)
    report = BuildReport()
    level: list[tuple[Node, str | None]] = [(graph.nodes[graph.seed_id], None)]
    for depth in range(config.d_max + 1):
        runs: list[list[tuple[Node, str | None, RetrievalResult]]] = []
        stages: list[list[_Stage]] = []
        try:
            chosen = choose_titles(
                [node.name for node, _ in level], source, gateway, config,
                [parent or topic.optional_prompt for _, parent in level],
                lambda term, title: retrieve_evidence(term, title, source, config),
            )
        except GatewayError as exc:
            error: GatewayError | None = exc
        else:
            runs = prompts.batches((*entry, evidence) for entry, (_, evidence) in zip(level, chosen))
            stages, error = gateway.map(lambda run: _run_stage(run, depth, config, gateway), runs)
        level = []
        for run, run_stages in zip(runs, stages):
            for (node, _, _), stage in zip(run, run_stages):
                children = _apply_stage(graph, node, stage, config, adapters, report, rejects)
                level.extend((child, node.name) for child in children)
        if error is not None:
            report.aborted_reason = abort_label(error)
            log.error("build aborted: %s", report.aborted_reason)
            break

    report.nodes_added = len(graph.nodes) - 1
    report.edges_added = len(graph.edges)
    report.per_depth_counts = dict(Counter(n.depth for n in graph.nodes.values()))
    if report.candidates_seen:
        report.curation_prune_rate = report.candidates_rejected / report.candidates_seen
    graph.check_invariants()
    return graph, report
