"""The curator stage: duplicate and alias filtering, type agreement, NLI
consistency, and content-policy screening over candidate triples.

A triple passes the NLI check when its head's gloss entails it with at
least ``NLI_THRESHOLD``."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .adapters import AdapterSuite, EmbeddingAdapter
from .config import PipelineConfig
from .errors import AdapterError, GraphError
from .graph import KnowledgeGraph, Triple, normalize_name

log = logging.getLogger(__name__)

NLI_THRESHOLD = 0.5


@dataclass
class CurationOutcome:
    accepted: list[Triple] = field(default_factory=list)
    merged: list[tuple[Triple, str]] = field(default_factory=list)
    rejected: list[tuple[Triple, str]] = field(default_factory=list)


def content_filter(
    triple: Triple,
    head_gloss: str,
    adapters: AdapterSuite,
) -> tuple[bool, str | None]:
    """Run the three content checks in order: ontology type agreement, NLI
    entailment of the verbalized triple against the head gloss, and the
    policy screen. The first failing check names the rejection reason. An
    adapter outage skips its check."""
    premise = head_gloss or triple.head
    screened = " ".join((triple.head, triple.relation, triple.tail))
    checks = (
        ("type_fail", "ontology",
         lambda: adapters.ontology.type_ok(triple.relation, triple.tail) is False),
        ("nli_fail", "NLI",
         lambda: adapters.nli.entailment(premise, triple.verbalize()) < NLI_THRESHOLD),
        ("policy_fail", "policy", lambda: not adapters.policy.allowed(screened)),
    )
    for reason, adapter, fails in checks:
        try:
            if fails():
                return False, reason
        except AdapterError as exc:
            log.warning("%s adapter outage for %s: %s (check skipped)", adapter, triple, exc)
    return True, None


def curate(
    graph: KnowledgeGraph,
    parent_id: str,
    raw: list[Triple],
    adapters: AdapterSuite,
    config: PipelineConfig,
) -> CurationOutcome:
    """Filter candidates in order: known head, duplicate name, semantic
    alias (embedding cosine at least ``tau_alias``), content checks. A head
    is known when it names an existing node (the parent among them) or a
    tail accepted earlier in this call; any other head is rejected as
    ``unknown_head``. Duplicates and aliases
    re-attribute their relation to the existing node (no new node, so no
    relation is lost), unless their head is such a pending tail, which has
    no node yet. Survivors are returned for the caller to attach via
    add_curated.

    The alias scan visits the nodes in id order, sorted once per call: this
    call adds edges only, never nodes. It compares by embedding only: a tail
    whose normalized name is a node id is already a duplicate. After the
    embedding's first ``AdapterError``, logged once, no candidate of this
    call is an alias and the embedding is not called again in this call."""
    if parent_id not in graph.nodes:
        raise GraphError(f"unknown parent {parent_id!r}")
    outcome = CurationOutcome()
    nodes = graph.sorted_nodes()
    embedding: EmbeddingAdapter | None = adapters.embedding
    pending_names: set[str] = set()
    for triple in raw:
        tail_norm = normalize_name(triple.tail)
        head_id = normalize_name(triple.head)
        head = graph.nodes.get(head_id)
        if head is None and head_id not in pending_names:
            outcome.rejected.append((triple, "unknown_head"))
            continue

        existing = graph.nodes.get(tail_norm)
        if existing is not None or tail_norm in pending_names:
            outcome.rejected.append((triple, "duplicate"))
            if existing is not None and head is not None:
                graph.add_edge(head_id, triple.relation, existing.id)
            continue

        alias_target = None
        if embedding is not None:
            try:
                alias_target = next(
                    (n for n in nodes if embedding.cosine(triple.tail, n.name) >= config.tau_alias),
                    None,
                )
            except AdapterError as exc:
                log.warning("embedding adapter failed (%s); no alias merges in this call", exc)
                embedding = None
        if alias_target is not None:
            outcome.merged.append((triple, alias_target.id))
            if head is not None:
                graph.add_edge(head_id, triple.relation, alias_target.id)
            continue

        ok, reason = content_filter(
            triple, (head.gloss or "") if head is not None else "", adapters
        )
        if not ok:
            outcome.rejected.append((triple, reason))
            continue

        outcome.accepted.append(triple)
        pending_names.add(tail_norm)

    return outcome
